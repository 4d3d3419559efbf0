"""Three-step search (TSS) — Liu/Zeng/Liou [3] in the paper's taxonomy.

A coarse-to-fine pattern search: start with step ``ceil(p/2)`` (4 for
the classic ±7 window, 8 for the paper's ±15), evaluate the centre and
its 8 neighbours at that step, re-centre on the winner, halve the step
and repeat until step 1.  Included as the canonical member of the
"reduce the number of search points" family ACBM competes with.
"""

from __future__ import annotations

from repro.me.candidates import CandidateEvaluator
from repro.me.estimator import BlockContext, MotionEstimator, register_estimator
from repro.me.search_window import clamped_window
from repro.me.subpel import refine_half_pel
from repro.me.types import BlockResult


def initial_step(p: int) -> int:
    """First TSS step size: the power of two just above half the window,
    ``2^(ceil(log2(p+1)) - 1)`` — the classic 4 for p=7, 8 for p=15."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    step = 1
    while step * 2 <= (p + 1) // 2:
        step *= 2
    return step


@register_estimator("tss")
class ThreeStepEstimator(MotionEstimator):
    """Classic three-step search with half-pel refinement."""

    def first_ring(self):
        """Centre plus the 8 step-sized points of the first stage —
        identical for every block, so the frame driver batches it."""
        step = initial_step(self.p)
        return ((0, 0),) + tuple(
            (ox, oy) for ox in (-step, 0, step) for oy in (-step, 0, step) if (ox, oy) != (0, 0)
        )

    def search_block(self, ctx: BlockContext) -> BlockResult:
        window = clamped_window(
            ctx.block_y,
            ctx.block_x,
            self.block_size,
            self.block_size,
            ctx.reference.shape[0],
            ctx.reference.shape[1],
            self.p,
        )
        evaluator = CandidateEvaluator(
            ctx.block, ctx.ref_plane, ctx.block_y, ctx.block_x, window,
            precomputed=ctx.warm_sads,
        )
        evaluator.evaluate(0, 0)
        step = initial_step(self.p)
        while step >= 1:
            cx, cy = evaluator.best_dx, evaluator.best_dy
            for ox in (-step, 0, step):
                for oy in (-step, 0, step):
                    if ox == 0 and oy == 0:
                        continue
                    evaluator.evaluate(cx + ox, cy + oy)
            step //= 2
        mv, best_sad = evaluator.best()
        positions = evaluator.positions
        if self.half_pel:
            mv, best_sad, extra = refine_half_pel(
                ctx.block, ctx.ref_plane, ctx.block_y, ctx.block_x, mv, best_sad, window
            )
            positions += extra
        return BlockResult(mv=mv, sad=best_sad, positions=positions)
