"""Generic variable-length-code machinery: deterministic Huffman
construction, canonical code assignment and prefix decoding.

The H.263 standard ships fixed VLC tables; rather than transcribing
102 rows (and risking transcription errors that would silently skew
every rate number), the tables here are *generated* as canonical
Huffman codes over an explicit frequency model with the same shape as
the standard's (short codes for low run / low level / non-LAST events,
long escape for the rest).  The construction is deterministic, the
Kraft sum is exactly 1, and encode/decode are exact inverses — all of
which the test suite checks.

Decoding is **table-driven**: every :class:`VLCTable` compiles its
canonical codes into a peek-indexed lookup table at construction —
``LUT_FIRST_BITS`` bits of first level, nested sub-tables for longer
codes — so decoding a symbol is one
:meth:`~repro.codec.bitstream.BitReader.read_vlc` call on
:attr:`VLCTable.lut` (peek + table hit + skip) instead of a per-bit
tree walk, and an exp-Golomb code is one 64-bit peek.  The seed per-bit walks they are checked against live
in :mod:`repro.reference`.
"""

from __future__ import annotations

import heapq
from typing import Generic, Hashable, Iterable, Sequence, TypeVar

import numpy as np

from repro.obs import metrics

Symbol = TypeVar("Symbol", bound=Hashable)

#: First-level LUT width in bits: every code no longer than this
#: decodes with a single table hit; longer codes indirect through one
#: nested sub-table keyed by their remaining bits.
LUT_FIRST_BITS = 9

#: LUT compilations (once per :class:`VLCTable` construction) versus
#: re-uses of an already-compiled table through the :attr:`VLCTable.lut`
#: property — the caching the hot parse loops rely on.  Deliberately
#: *not* per decoded symbol: the property is read once per loop setup.
_MET_LUT_BUILDS = metrics.counter("vlc.lut_builds")
_MET_LUT_HITS = metrics.counter("vlc.lut_hits")


def huffman_code_lengths(
    symbols: Sequence[Symbol], weights: Sequence[float]
) -> dict[Symbol, int]:
    """Optimal prefix code lengths for ``symbols`` with ``weights``.

    Ties are broken by symbol position, so the result depends only on
    the input order — never on hash randomization.
    """
    if len(symbols) != len(weights):
        raise ValueError("symbols and weights must have equal length")
    if len(symbols) == 0:
        raise ValueError("need at least one symbol")
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    if len(symbols) == 1:
        return {symbols[0]: 1}
    # Each heap entry: (weight, tiebreak, [symbol indices in subtree]).
    heap: list[tuple[float, int, list[int]]] = [
        (w, i, [i]) for i, w in enumerate(weights)
    ]
    heapq.heapify(heap)
    depths = [0] * len(symbols)
    counter = len(symbols)
    while len(heap) > 1:
        w1, _, members1 = heapq.heappop(heap)
        w2, _, members2 = heapq.heappop(heap)
        for index in members1 + members2:
            depths[index] += 1
        heapq.heappush(heap, (w1 + w2, counter, members1 + members2))
        counter += 1
    return {symbols[i]: depths[i] for i in range(len(symbols))}


def canonical_codes(lengths: dict[Symbol, int], order: Sequence[Symbol]) -> dict[Symbol, tuple[int, int]]:
    """Assign canonical codes ``(value, length)`` from code lengths.

    ``order`` fixes the tie-break between symbols of equal length.
    The resulting code set is prefix-free iff the lengths satisfy the
    Kraft equality/inequality (Huffman lengths always do).
    """
    position = {sym: i for i, sym in enumerate(order)}
    ranked = sorted(lengths.items(), key=lambda kv: (kv[1], position[kv[0]]))
    codes: dict[Symbol, tuple[int, int]] = {}
    code = 0
    prev_len = ranked[0][1] if ranked else 0
    for sym, length in ranked:
        code <<= length - prev_len
        codes[sym] = (code, length)
        code += 1
        prev_len = length
    return codes


def _compile_lut_level(
    codes: "list[tuple]", offset: int, width: int
) -> list:
    """One LUT level over bits ``[offset, offset + width)`` of the codes
    (all sharing their first ``offset`` bits).  See
    :meth:`VLCTable._build_lut` for the entry convention."""
    table: list = [None] * (1 << width)
    overflow: dict[int, list[tuple]] = {}
    for sym, value, length in codes:
        rest = length - offset
        if rest <= width:
            base = (value & ((1 << rest) - 1)) << (width - rest)
            span = 1 << (width - rest)
            table[base : base + span] = [(sym, length, None)] * span
        else:
            key = (value >> (rest - width)) & ((1 << width) - 1)
            overflow.setdefault(key, []).append((sym, value, length))
    for key, group in overflow.items():
        sub_bits = min(
            max(length for _, _, length in group) - offset - width, LUT_FIRST_BITS
        )
        table[key] = (None, sub_bits, _compile_lut_level(group, offset + width, sub_bits))
    return table


class VLCTable(Generic[Symbol]):
    """A prefix code over a finite symbol set.

    Built from a frequency model; provides ``encode`` (symbol →
    ``(value, length)``) and ``decode`` (pull one symbol off a
    :class:`BitReader`).
    """

    def __init__(self, symbols: Sequence[Symbol], weights: Sequence[float]) -> None:
        lengths = huffman_code_lengths(list(symbols), list(weights))
        self._codes = canonical_codes(lengths, list(symbols))
        self.max_length = max(length for _, length in self._codes.values())
        self._lut_bits, self._lut = self._build_lut()

    def _build_lut(self) -> tuple[int, list]:
        """Compile the canonical codes into the peek-indexed LUT
        :meth:`repro.codec.bitstream.BitReader.read_vlc` consumes.

        Entries are ``(symbol, total_length, None)`` for codes resolved
        at this level; a slot shared by longer codes holds
        ``(None, sub_bits, sub_table)`` where ``sub_table`` maps their
        next ``sub_bits`` bits the same way, recursively — each level is
        at most ``LUT_FIRST_BITS`` wide, so a pathological 30-bit code
        costs a couple of indirections instead of a multi-megabyte flat
        table.  Every index covered by a code's prefix maps to it, so a
        zero-padded peek near the end of the stream still resolves
        correctly (the reader rejects matches longer than the bits
        actually remaining).
        """
        codes = [(sym, value, length) for sym, (value, length) in self._codes.items()]
        first_bits = min(self.max_length, LUT_FIRST_BITS)
        _MET_LUT_BUILDS.inc()
        return first_bits, _compile_lut_level(codes, 0, first_bits)

    @property
    def lut(self) -> list:
        """The compiled decode LUT (see :meth:`_build_lut`): a symbol
        decodes as ``reader.read_vlc(table.lut, table.lut_first_bits)``."""
        _MET_LUT_HITS.inc()
        return self._lut

    @property
    def lut_first_bits(self) -> int:
        """Index width of the LUT's first level, in bits."""
        return self._lut_bits

    def __len__(self) -> int:
        return len(self._codes)

    def __contains__(self, symbol: Symbol) -> bool:
        return symbol in self._codes

    def encode(self, symbol: Symbol) -> tuple[int, int]:
        try:
            return self._codes[symbol]
        except KeyError:
            raise KeyError(f"symbol {symbol!r} not in VLC table") from None

    def items(self) -> Iterable[tuple[Symbol, tuple[int, int]]]:
        return self._codes.items()


# -- exp-Golomb (used for motion vector differences) --------------------


def ue_golomb_code(value: int) -> tuple[int, int]:
    """Unsigned exp-Golomb ``(code_value, length)`` of ``value >= 0``."""
    if value < 0:
        raise ValueError(f"ue(v) needs v >= 0, got {value}")
    v = value + 1
    bits = v.bit_length()
    return v, 2 * bits - 1


def se_golomb_code(value: int) -> tuple[int, int]:
    """Signed exp-Golomb mapping 0,+1,−1,+2,−2,… → 0,1,2,3,4,…"""
    mapped = 2 * value - 1 if value > 0 else -2 * value
    return ue_golomb_code(mapped)


def ue_golomb_arrays(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`ue_golomb_code` of many ``values >= 0``: the code value
    and length arrays."""
    v = np.asarray(values, dtype=np.int64) + 1
    # frexp's exponent is the bit length of a positive integer, exactly.
    return v, 2 * np.frexp(v.astype(np.float64))[1].astype(np.int64) - 1


def se_golomb_arrays(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`se_golomb_code` of many values."""
    d = np.asarray(values, dtype=np.int64)
    return ue_golomb_arrays(np.where(d > 0, 2 * d - 1, -2 * d))


#: Longest ue(v) prefix a stream may carry.  No legal code here needs
#: more than 8 zeros (reference indices <= 7, |MVD| <= 124 half-pel);
#: 32 keeps every decoded value far inside the int64 motion grids.
MAX_GOLOMB_ZEROS = 32


def read_ue_golomb_bitwise(reader) -> int:
    """The seed bit-at-a-time ue(v) reader: the error path (its
    EOF/malformed behaviour is the contract) behind the one-peek read,
    and the oracle's reader.  A prefix longer than
    :data:`MAX_GOLOMB_ZEROS` raises ``ValueError`` naming the bit where
    the code starts."""
    start = reader.bits_consumed
    zeros = 0
    while reader.read_bit() == 0:
        zeros += 1
        if zeros > MAX_GOLOMB_ZEROS:
            raise ValueError(
                f"malformed exp-Golomb prefix: more than {MAX_GOLOMB_ZEROS} "
                f"leading zeros in the code starting at bit {start}"
            )
    value = 1
    for _ in range(zeros):
        value = (value << 1) | reader.read_bit()
    return value - 1
