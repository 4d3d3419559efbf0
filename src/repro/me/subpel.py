"""Half-pel interpolation and refinement.

H.263 (and the paper's TMN5 reference encoder) use bilinear half-pel
samples with upward rounding:

* horizontal half:  ``(a + b + 1) >> 1``
* vertical half:    ``(a + c + 1) >> 1``
* centre:           ``(a + b + c + d + 2) >> 2``

Both the estimators (candidate evaluation) and the codec (motion
compensation) read the same samples, so the SAD a search reports is
exactly the SAD the encoder's residual will see.  Searches read them
from a :class:`repro.me.engine.ReferencePlane`'s half-pel plane, built
once per frame; :func:`half_pel_block` and :func:`predict_block`
interpolate one patch from a raw plane, the per-block definition that
plane and the oracle decoder (:mod:`repro.reference`) are checked
against.
"""

from __future__ import annotations

import numpy as np

from repro.me.engine.reference_plane import ReferencePlane
from repro.me.metrics import sad
from repro.me.search_window import SearchWindow, half_pel_window
from repro.me.types import MotionVector


def half_pel_block(
    ref: np.ndarray, half_y: int, half_x: int, height: int, width: int
) -> np.ndarray:
    """Predicted ``height x width`` block whose top-left corner sits at
    the half-pel coordinate ``(half_y, half_x)`` of ``ref``.

    Coordinates are in half-pel units (2 = one pixel).  The required
    integer support must lie inside the plane; callers get that
    guarantee from :func:`repro.me.search_window.half_pel_window`.
    """
    iy, ix = half_y >> 1, half_x >> 1  # floor division, exact for ints
    fy, fx = half_y & 1, half_x & 1
    h_need = height + (1 if fy else 0)
    w_need = width + (1 if fx else 0)
    if not (0 <= iy and iy + h_need <= ref.shape[0] and 0 <= ix and ix + w_need <= ref.shape[1]):
        raise ValueError(
            f"half-pel block at ({half_y}, {half_x}) size {height}x{width} "
            f"needs support outside plane {ref.shape}"
        )
    patch = ref[iy : iy + h_need, ix : ix + w_need].astype(np.int32)
    if fy == 0 and fx == 0:
        return patch[:height, :width].astype(np.uint8)
    if fy == 0:  # horizontal half-pel
        out = (patch[:, :-1] + patch[:, 1:] + 1) >> 1
        return out[:height].astype(np.uint8)
    if fx == 0:  # vertical half-pel
        out = (patch[:-1, :] + patch[1:, :] + 1) >> 1
        return out[:, :width].astype(np.uint8)
    out = (patch[:-1, :-1] + patch[:-1, 1:] + patch[1:, :-1] + patch[1:, 1:] + 2) >> 2
    return out.astype(np.uint8)


#: The 8 half-pel neighbour offsets around an integer-pel anchor.
HALF_PEL_NEIGHBOURS: tuple[tuple[int, int], ...] = (
    (-1, -1), (0, -1), (1, -1),
    (-1, 0), (1, 0),
    (-1, 1), (0, 1), (1, 1),
)


def refine_half_pel(
    block: np.ndarray,
    plane: ReferencePlane,
    block_y: int,
    block_x: int,
    anchor: MotionVector,
    anchor_sad: int,
    window: SearchWindow,
) -> tuple[MotionVector, int, int]:
    """Evaluate the (up to) 8 half-pel candidates around an integer-pel
    ``anchor`` vector, exactly as FSBM's final stage (Section 2.3).

    Parameters
    ----------
    block:
        Current-frame block.
    plane:
        The reference's per-frame cache; candidates read its half-pel
        plane.
    block_y, block_x:
        Block top-left pixel position in the current frame.
    anchor, anchor_sad:
        Best integer-pel vector and its SAD.
    window:
        Integer-pel displacement bounds for this block.

    Returns
    -------
    (mv, sad, positions)
        Best vector among anchor + valid neighbours, its SAD, and the
        number of *extra* candidate positions evaluated (<= 8).
    """
    if not anchor.is_integer_pel:
        raise ValueError(f"half-pel refinement anchor must be integer-pel, got {anchor}")
    hwin = half_pel_window(window)
    best_mv, best_sad = anchor, anchor_sad
    evaluated = 0
    h, w = block.shape
    for dhx, dhy in HALF_PEL_NEIGHBOURS:
        hx, hy = anchor.hx + dhx, anchor.hy + dhy
        if not hwin.contains(hx, hy):
            continue
        cand_sad = sad(block, plane.block(2 * block_y + hy, 2 * block_x + hx, h, w))
        evaluated += 1
        if cand_sad < best_sad:
            best_mv, best_sad = MotionVector(hx, hy), cand_sad
    return best_mv, best_sad, evaluated


def predict_block(
    ref: np.ndarray,
    block_y: int,
    block_x: int,
    mv: MotionVector,
    height: int,
    width: int,
) -> np.ndarray:
    """Motion-compensated prediction for a block, from the raw plane:
    the integer slice or a freshly interpolated half-pel patch.  The
    per-block definition of :meth:`ReferencePlane.predict` and
    :func:`repro.me.engine.frame_mc_luma`."""
    if mv.is_integer_pel:
        y = block_y + mv.hy // 2
        x = block_x + mv.hx // 2
        if not (0 <= y and y + height <= ref.shape[0] and 0 <= x and x + width <= ref.shape[1]):
            raise ValueError(f"prediction with {mv} at ({block_y}, {block_x}) leaves plane {ref.shape}")
        return ref[y : y + height, x : x + width]
    return half_pel_block(ref, 2 * block_y + mv.hy, 2 * block_x + mv.hx, height, width)
