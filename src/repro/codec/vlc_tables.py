"""Concrete VLC tables for the H.263-style coder.

Three tables are built at import time as deterministic canonical
Huffman codes over explicit frequency models (see
:mod:`repro.codec.vlc` for why generated tables are used instead of
transcribed standard ones):

* ``TCOEF_TABLE``  — (LAST, RUN, LEVEL-magnitude) events plus ESCAPE.
  The model gives geometrically decaying weight in RUN and LEVEL and a
  penalty for LAST=1, matching the structure of H.263 Table 16: the
  most common event (0, 0, 1) gets the shortest code, rare events fall
  through to a fixed 15-bit escape payload (1+6+8 bits after the
  escape prefix).  A sign bit follows every non-escape TCOEF code.
* ``CBPY_TABLE``   — coded-block-pattern for the four luma blocks
  (16 patterns; all-zero and all-coded are the most likely).
* ``MCBPC_TABLE``  — chroma CBP (4 patterns) for inter macroblocks.

Motion vector differences use signed exp-Golomb (``repro.codec.vlc``),
which has the same 1-bit-for-zero, symmetric-growth profile as H.263's
MVD table.

Because every table is a :class:`~repro.codec.vlc.VLCTable`, each one
compiles its peek-indexed decode LUT at import time — symbol decode on
a word-level :class:`~repro.codec.bitstream.BitReader` is one
``read_vlc`` call per symbol.  :data:`ALL_TABLES` names them for the
LUT-vs-bitwise equivalence tests.
"""

from __future__ import annotations

from repro.codec.vlc import VLCTable
from repro.codec.zigzag import CoefficientEvent

# -- TCOEF --------------------------------------------------------------

#: Sentinel symbol for events outside the table.
ESCAPE = "escape"

#: Escape payload: LAST (1) + RUN (6) + signed LEVEL (8 bits, two's
#: complement, −127..127 excluding 0 and −128).
ESCAPE_PAYLOAD_BITS = 1 + 6 + 8

#: Largest RUN and LEVEL magnitude with a table code; events beyond
#: either take the escape.
TCOEF_MAX_RUN = 20
TCOEF_MAX_LEVEL = 8


def _tcoef_model() -> tuple[list, list]:
    symbols: list = []
    weights: list[float] = []
    for last in (0, 1):
        for run in range(TCOEF_MAX_RUN + 1):
            for level in range(1, TCOEF_MAX_LEVEL + 1):
                symbols.append((last, run, level))
                weight = (0.22 if last else 1.0) * (0.58 ** run) * (0.38 ** (level - 1))
                weights.append(weight)
    symbols.append(ESCAPE)
    weights.append(2e-4)
    return symbols, weights


_sym, _w = _tcoef_model()
TCOEF_TABLE: VLCTable = VLCTable(_sym, _w)


def tcoef_symbol(event: CoefficientEvent):
    """Table symbol for an event, or ESCAPE when out of range."""
    magnitude = abs(event.level)
    if event.run <= TCOEF_MAX_RUN and magnitude <= TCOEF_MAX_LEVEL:
        return (1 if event.last else 0, event.run, magnitude)
    return ESCAPE


# -- CBPY / MCBPC --------------------------------------------------------


def _cbpy_model() -> tuple[list[int], list[float]]:
    """Luma CBP patterns: weight by popcount — sparse patterns dominate
    at the Qp range the paper uses, all-coded dominates at low Qp; give
    both ends mass like the standard's table does."""
    symbols = list(range(16))
    weights = []
    for pattern in symbols:
        ones = bin(pattern).count("1")
        weights.append({0: 8.0, 1: 2.0, 2: 1.0, 3: 1.2, 4: 4.0}[ones])
    return symbols, weights


CBPY_TABLE: VLCTable = VLCTable(*_cbpy_model())


def _mcbpc_model() -> tuple[list[int], list[float]]:
    symbols = [0, 1, 2, 3]  # (cb coded?) * 2 + (cr coded?)
    weights = [8.0, 1.0, 1.0, 0.5]
    return symbols, weights


MCBPC_TABLE: VLCTable = VLCTable(*_mcbpc_model())

#: Every canonical table the coder uses, by name — the equivalence
#: tests and the VLC benchmark iterate this.
ALL_TABLES: dict[str, VLCTable] = {
    "tcoef": TCOEF_TABLE,
    "cbpy": CBPY_TABLE,
    "mcbpc": MCBPC_TABLE,
}
