"""Hexagon-based search (HEXBS) — Zhu, Lin & Chau.

The pattern search that superseded diamond search in practical
encoders (x264's "hex"): a 6-point large hexagon walks greedily (each
re-centre adds only 3 new points thanks to pattern overlap — the
evaluator's cache makes that automatic), then a 4-point small diamond
finishes.  Included as the strongest classic baseline in the ablation
bench.
"""

from __future__ import annotations

from repro.me.candidates import CandidateEvaluator
from repro.me.diamond import SMALL_DIAMOND
from repro.me.estimator import BlockContext, MotionEstimator, register_estimator
from repro.me.search_window import clamped_window
from repro.me.subpel import refine_half_pel
from repro.me.types import BlockResult

#: Large hexagon: 6 points, radius 2 horizontally, (1, 2) diagonally.
LARGE_HEXAGON = ((-2, 0), (2, 0), (-1, -2), (1, -2), (-1, 2), (1, 2))


@register_estimator("hexbs")
class HexagonEstimator(MotionEstimator):
    """Hexagon-based search with half-pel refinement."""

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
        """Centre plus the first large hexagon, batched across blocks
        by the frame driver."""
        return ((0, 0),) + LARGE_HEXAGON

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
        evaluator.descend(LARGE_HEXAGON, self.max_recentres)
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
