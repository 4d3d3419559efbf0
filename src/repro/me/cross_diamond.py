"""Cross-diamond search (CDS) — Cheung & Po [5] in the paper's taxonomy.

Starts with a 9-point cross whose early-termination rule exploits the
strongly centre-biased MV distribution of real video (most blocks stop
after <= 9 evaluations), then falls back to the diamond walk of DS for
the minority of moving blocks.
"""

from __future__ import annotations

from repro.me.candidates import CandidateEvaluator
from repro.me.diamond import LARGE_DIAMOND, SMALL_DIAMOND
from repro.me.estimator import BlockContext, MotionEstimator, register_estimator
from repro.me.search_window import clamped_window
from repro.me.subpel import refine_half_pel
from repro.me.types import BlockResult

#: Central 3x3 cross (L1 radius 1) plus the radius-2 cross arms.
_CROSS_CENTRE = ((0, -1), (-1, 0), (1, 0), (0, 1))
_CROSS_ARMS = ((0, -2), (-2, 0), (2, 0), (0, 2))


@register_estimator("cds")
class CrossDiamondEstimator(MotionEstimator):
    """Cross-diamond search with half-pel refinement."""

    def __init__(
        self,
        p: int = 15,
        block_size: int = 16,
        half_pel: bool = True,
        max_recentres: int = 32,
    ) -> None:
        super().__init__(p=p, block_size=block_size, half_pel=half_pel)
        if max_recentres < 1:
            raise ValueError(f"max_recentres must be >= 1, got {max_recentres}")
        self.max_recentres = max_recentres

    def first_ring(self):
        """Centre plus the small cross — CDS's unconditional opening.
        The radius-2 arms are *not* included: most real-video blocks
        take the first-step stop, so pre-scoring the arms for every
        block would waste more gathers than it saves."""
        return ((0, 0),) + _CROSS_CENTRE

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
        evaluator.evaluate_many(_CROSS_CENTRE)
        # First-step stop: stationary block, centre already optimal.
        if (evaluator.best_dx, evaluator.best_dy) != (0, 0):
            evaluator.evaluate_many(_CROSS_ARMS)
            # Second-step stop: winner still within the small cross.
            if abs(evaluator.best_dx) + abs(evaluator.best_dy) > 1:
                evaluator.descend(LARGE_DIAMOND, self.max_recentres)
                cx, cy = evaluator.best_dx, evaluator.best_dy
                evaluator.evaluate_many((cx + ox, cy + oy) for ox, oy in SMALL_DIAMOND)
        mv, best_sad = evaluator.best()
        positions = evaluator.positions
        if self.half_pel:
            mv, best_sad, extra = refine_half_pel(
                ctx.block, ctx.ref_plane, ctx.block_y, ctx.block_x, mv, best_sad, window
            )
            positions += extra
        return BlockResult(mv=mv, sad=best_sad, positions=positions)
