"""Full-search block matching (FSBM), Section 2.3 of the paper.

Evaluates every integer displacement in the (clipped) ±p window, then
refines the winner over the 8 half-pel neighbours.  With p = 15 and no
border clipping that is the paper's 961 + 8 = 969 candidate positions
per macroblock.

The per-block definition, :meth:`FullSearchEstimator.search_block`, is
a vectorized SAD map over one block's window, run only by the oracle
(:func:`repro.reference.estimate_motion`).  The frame path,
:meth:`FullSearchEstimator.estimate_frame`, runs the block-list surface
kernel over every block in one batched pass
(:func:`repro.me.engine.frame_sad_surfaces`) — bit-identical fields,
SADs and position counts.  ACBM runs the same kernel on its critical
blocks only.  Both read the frame's shared
:class:`repro.me.engine.ReferencePlane` for the half-pel stage.

Tie-breaking: among equal-SAD minima the vector with the smallest
Chebyshev length wins (then smaller dy, then dx).  This mirrors real
encoders' preference for short vectors — they cost fewer MVD bits — and
makes results deterministic.
"""

from __future__ import annotations

import numpy as np

from repro.me.engine.kernels import frame_sad_surfaces, refine_half_pel_batch, select_minima
from repro.me.engine.reference_plane import ReferencePlane
from repro.me.estimator import BlockContext, MotionEstimator, register_estimator
from repro.me.metrics import sad_map
from repro.me.search_window import SearchWindow, clamped_window
from repro.me.stats import SearchStats
from repro.me.subpel import refine_half_pel
from repro.me.types import BlockResult, MotionField, MotionVector
from repro.video.frame import MACROBLOCK_SIZE


def full_search_sads(
    current: np.ndarray,
    reference: np.ndarray,
    block_y: int,
    block_x: int,
    p: int,
) -> tuple[np.ndarray, SearchWindow]:
    """SADs of one 16x16 block against every integer candidate in its
    window.

    Returns ``(sads, window)`` where ``sads[i, j]`` corresponds to the
    displacement ``(dy, dx) = (window.dy_min + i, window.dx_min + j)``.
    Shared by FSBM's and ACBM's per-block definitions; the batched
    twin is :func:`repro.me.engine.block_sad_surfaces`.
    """
    s = MACROBLOCK_SIZE
    window = clamped_window(block_y, block_x, s, s, reference.shape[0], reference.shape[1], p)
    block = current[block_y : block_y + s, block_x : block_x + s]
    region = reference[
        block_y + window.dy_min : block_y + window.dy_max + s,
        block_x + window.dx_min : block_x + window.dx_max + s,
    ]
    return sad_map(block, region), window


def select_minimum(sads: np.ndarray, window: SearchWindow) -> tuple[MotionVector, int]:
    """Pick the minimum-SAD displacement with the shortest-vector
    tie-break.  Returns an integer-pel :class:`MotionVector` and its SAD."""
    min_sad = int(sads.min())
    ys, xs = np.nonzero(sads == min_sad)
    best = None
    for i, j in zip(ys.tolist(), xs.tolist()):
        dy = window.dy_min + i
        dx = window.dx_min + j
        key = (max(abs(dx), abs(dy)), abs(dy), abs(dx), dy, dx)
        if best is None or key < best[0]:
            best = (key, dx, dy)
    _, dx, dy = best
    return MotionVector(2 * dx, 2 * dy), min_sad


@register_estimator("fsbm")
class FullSearchEstimator(MotionEstimator):
    """Exhaustive search: the paper's quality reference and cost ceiling.

    >>> est = FullSearchEstimator(p=15)
    >>> est.name
    'fsbm'
    """

    def search_block(self, ctx: BlockContext) -> BlockResult:
        sads, window = full_search_sads(ctx.current, ctx.reference, ctx.block_y, ctx.block_x, self.p)
        mv, best_sad, extra = refine_half_pel(
            ctx.block, ctx.ref_plane, ctx.block_y, ctx.block_x, *select_minimum(sads, window), window
        )
        return BlockResult(
            mv=mv, sad=best_sad, positions=window.num_positions + extra, used_full_search=True
        )

    def estimate_frame(
        self,
        current: np.ndarray,
        reference: np.ndarray,
        plane: ReferencePlane,
        prev_field,
        qp: int,
    ) -> tuple[MotionField, SearchStats]:
        """Whole-frame batched FSBM via the engine kernels."""
        dx, dy, sads, positions = select_minima(frame_sad_surfaces(current, plane, self.p))
        hx, hy, _, extra = refine_half_pel_batch(current, plane, dx, dy, sads, self.p)
        stats = SearchStats()
        stats.record_frame(positions + extra, used_full_search=True)
        return MotionField(hx, hy), stats
