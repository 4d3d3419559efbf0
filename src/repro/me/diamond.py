"""Diamond search (DS).

The workhorse fast search of MPEG-4-era encoders: a large diamond
pattern (9 points) is greedily re-centred until its best point is the
centre, then one small diamond (4 points) finishes.  Serves as a
baseline between TSS and the predictive search in the ablation bench.
"""

from __future__ import annotations

from repro.me.candidates import CandidateEvaluator
from repro.me.estimator import BlockContext, MotionEstimator, register_estimator
from repro.me.search_window import clamped_window
from repro.me.subpel import refine_half_pel
from repro.me.types import BlockResult

#: Large diamond: centre plus 8 points at L1 radius 2.
LARGE_DIAMOND = ((0, -2), (-1, -1), (1, -1), (-2, 0), (2, 0), (-1, 1), (1, 1), (0, 2))

#: Small diamond: 4 points at L1 radius 1.
SMALL_DIAMOND = ((0, -1), (-1, 0), (1, 0), (0, 1))


@register_estimator("ds")
class DiamondEstimator(MotionEstimator):
    """Classic two-pattern diamond search with half-pel refinement.

    ``max_recentres`` bounds the large-diamond walk so worst-case cost
    stays finite even on pathological (periodic) content.
    """

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
        """Centre plus the first large diamond, batched across blocks
        by the frame driver."""
        return ((0, 0),) + LARGE_DIAMOND

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
