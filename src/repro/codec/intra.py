"""Spatial intra prediction for GOP-mode I-frames.

Seed-format I-frames code every block against a flat mid-grey (the
intra DC byte); GOP-mode I-frames (``Encoder(i_period=...)``) predict
each macroblock spatially from its already-reconstructed neighbours —
the ``IntraFrameEncoder`` shape: three modes, chosen per macroblock,
coded in two fixed bits ahead of the MCBPC/CBPY pair.

* ``INTRA_DC`` — flat 128 (always available; the fallback at edges),
* ``INTRA_VERTICAL`` — the pixel row directly above the block,
  replicated downward,
* ``INTRA_HORIZONTAL`` — the pixel column directly left of the block,
  replicated rightward.

Two decision/prediction planes keep the closed loop exact:

* the **mode decision** is open-loop — costs are SADs against the
  *source* luma (:func:`intra_mode_costs_reference` here, or the
  batched :func:`repro.me.engine.intra_mode_cost_surfaces` the encoder
  runs, pinned integer-identical);
* the **prediction** is closed-loop — :func:`intra_predict` reads the
  *reconstructed* neighbours the decoder will have, so encoder and
  decoder reconstructions match bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.me.engine.kernels import INTRA_UNAVAILABLE_COST

#: Mode indices as they appear on the wire (2 fixed bits per MB).
INTRA_DC = 0
INTRA_VERTICAL = 1
INTRA_HORIZONTAL = 2

INTRA_MODE_NAMES = ("DC", "vertical", "horizontal")

#: Wire width of the per-macroblock mode field.
INTRA_MODE_BITS = 2

__all__ = [
    "INTRA_DC",
    "INTRA_HORIZONTAL",
    "INTRA_MODE_BITS",
    "INTRA_MODE_NAMES",
    "INTRA_UNAVAILABLE_COST",
    "INTRA_VERTICAL",
    "choose_intra_modes",
    "intra_mode_costs_reference",
    "intra_predict",
]


def intra_predict(
    plane: np.ndarray, block_row: int, block_col: int, size: int, mode: int
) -> np.ndarray:
    """Predict one ``size`` x ``size`` block from its causal neighbours.

    ``plane`` is the partially reconstructed plane being filled in
    raster order, so the row above and the column left of the block are
    final pixels.  Neighbours outside the picture fall back to the flat
    DC value, matching the decoder exactly.  Returns ``float64`` ready
    for residual arithmetic.
    """
    y0, x0 = size * block_row, size * block_col
    if mode == INTRA_VERTICAL and block_row > 0:
        above = plane[y0 - 1, x0 : x0 + size].astype(np.float64)
        return np.broadcast_to(above, (size, size)).copy()
    if mode == INTRA_HORIZONTAL and block_col > 0:
        left = plane[y0 : y0 + size, x0 - 1].astype(np.float64)
        return np.broadcast_to(left[:, None], (size, size)).copy()
    if mode not in (INTRA_DC, INTRA_VERTICAL, INTRA_HORIZONTAL):
        raise ValueError(f"illegal intra prediction mode {mode}")
    return np.full((size, size), 128.0)


def intra_mode_costs_reference(y: np.ndarray) -> np.ndarray:
    """Per-macroblock SAD of each intra mode against the source luma.

    The seed (per-block scalar) twin of the batched
    :func:`repro.me.engine.intra_mode_cost_surfaces` the encoder runs;
    both return the same ``(3, mb_rows, mb_cols)`` ``int64`` surface
    (the tests pin them equal), so this loop is the reference for the
    encoder's mode decisions, alongside the per-block decoder oracle in
    :mod:`repro.reference`.  Unavailable modes cost
    :data:`INTRA_UNAVAILABLE_COST`.
    """
    rows, cols = y.shape[0] // 16, y.shape[1] // 16
    cur = y.astype(np.int64)
    costs = np.full((3, rows, cols), INTRA_UNAVAILABLE_COST, dtype=np.int64)
    for r in range(rows):
        for c in range(cols):
            y0, x0 = 16 * r, 16 * c
            block = cur[y0 : y0 + 16, x0 : x0 + 16]
            costs[INTRA_DC, r, c] = int(np.abs(block - 128).sum())
            if r > 0:
                above = cur[y0 - 1, x0 : x0 + 16]
                costs[INTRA_VERTICAL, r, c] = int(np.abs(block - above[None, :]).sum())
            if c > 0:
                left = cur[y0 : y0 + 16, x0 - 1]
                costs[INTRA_HORIZONTAL, r, c] = int(np.abs(block - left[:, None]).sum())
    return costs


def choose_intra_modes(costs: np.ndarray) -> np.ndarray:
    """Mode index per macroblock from a cost surface: minimal SAD, ties
    broken toward the lowest mode index (DC first) — the rule both the
    batched and scalar surfaces share."""
    return np.argmin(costs, axis=0)
