"""H.263 motion-vector prediction and differential coding.

Each macroblock's vector is coded as a difference (MVD) from the
median of three neighbouring vectors — left, above, above-right — with
the standard border rules:

* a candidate outside the picture is replaced by the zero vector,
  except that when *only* the left candidate exists (first MB row)
  the left vector itself is used as predictor;
* for the first macroblock of a row the left candidate is zero;
* above / above-right fall back to zero on the top row and the last
  column respectively.

This median prediction is precisely why PBM-style smooth fields are
cheap to transmit (small MVDs) and FSBM's incoherent fields are not —
the effect behind the paper's R(mv) term.

MVD components are coded with the signed exp-Golomb code in half-pel
units (0 → 1 bit, ±0.5 → 3 bits, …), mirroring the length profile of
H.263's MVD table.
"""

from __future__ import annotations

import numpy as np

from repro.codec.bitstream import BitReader, BitWriter
from repro.codec.vlc import read_se_golomb, se_golomb_arrays, se_golomb_bits, se_golomb_code
from repro.me.types import MotionField, MotionVector


def _median3(a: int, b: int, c: int) -> int:
    return sorted((a, b, c))[1]


def predict_mv(field: MotionField, mb_row: int, mb_col: int) -> MotionVector:
    """Median predictor for block (mb_row, mb_col) from the partially
    coded field (raster order: entries left/above are already set)."""
    left = field.get(mb_row, mb_col - 1)
    above = field.get(mb_row - 1, mb_col)
    above_right = field.get(mb_row - 1, mb_col + 1)
    if above is None and above_right is None:
        # Top row: predictor is the left vector (or zero at the corner).
        return left if left is not None else MotionVector.zero()
    zero = MotionVector.zero()
    l = left if left is not None else zero
    a = above if above is not None else zero
    ar = above_right if above_right is not None else zero
    return MotionVector(
        _median3(l.hx, a.hx, ar.hx),
        _median3(l.hy, a.hy, ar.hy),
    )


def predict_mv_arrays(
    hx: np.ndarray, hy: np.ndarray, mb_rows: np.ndarray, mb_cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`predict_mv` for the blocks ``(mb_rows[i], mb_cols[i])`` of
    a complete ``(rows, cols)`` field given as half-pel grids: the same
    border rules, read off a zero-padded copy."""
    out = []
    for comp in (hx, hy):
        pad = np.pad(np.asarray(comp, dtype=np.int64), 1)
        left = pad[mb_rows + 1, mb_cols]
        above = pad[mb_rows, mb_cols + 1]
        above_right = pad[mb_rows, mb_cols + 2]
        median = np.maximum(np.minimum(left, above), np.minimum(np.maximum(left, above), above_right))
        out.append(np.where(mb_rows == 0, left, median))
    return out[0], out[1]


def mvd_bits(mv: MotionVector, predictor: MotionVector) -> int:
    """Exact bit cost of coding ``mv`` against ``predictor``."""
    d = mv - predictor
    return se_golomb_bits(d.hx) + se_golomb_bits(d.hy)


def mvd_bits_arrays(dhx: np.ndarray, dhy: np.ndarray) -> np.ndarray:
    """:func:`mvd_bits` of many differential vectors ``(dhx, dhy)``."""
    return se_golomb_arrays(dhx)[1] + se_golomb_arrays(dhy)[1]


def write_mvd(writer: BitWriter, mv: MotionVector, predictor: MotionVector) -> int:
    """Emit the MVD; returns bits written."""
    d = mv - predictor
    before = writer.bit_count
    writer.write_code(se_golomb_code(d.hx))
    writer.write_code(se_golomb_code(d.hy))
    return writer.bit_count - before


def read_mvd(reader: BitReader, predictor: MotionVector) -> MotionVector:
    """Decode one vector given its predictor."""
    dhx = read_se_golomb(reader)
    dhy = read_se_golomb(reader)
    return MotionVector(predictor.hx + dhx, predictor.hy + dhy)


def field_bits(field: MotionField) -> int:
    """Total MVD bits for a complete motion field — the R(mv) term the
    paper's cost function charges, summed over a frame."""
    if not field.is_complete:
        raise ValueError("motion field has unset entries")
    total = 0
    coded = MotionField(field.mb_rows, field.mb_cols)
    for r, c, mv in field:
        predictor = predict_mv(coded, r, c)
        total += mvd_bits(mv, predictor)
        coded.set(r, c, mv)
    return total
