"""Four-step search (4SS) — Po & Ma [4] in the paper's taxonomy.

Searches a 5x5 neighbourhood with a fixed step of 2: if the best point
is the window centre the step drops to 1 (final 3x3 stage), otherwise
the 5x5 pattern re-centres (classically at most twice before the final
stage; we keep that bound).  Exploits the centre-biased motion-vector
distribution of real video.
"""

from __future__ import annotations

from repro.me.candidates import CandidateEvaluator
from repro.me.estimator import BlockContext, MotionEstimator, register_estimator
from repro.me.search_window import clamped_window
from repro.me.subpel import refine_half_pel
from repro.me.types import BlockResult

_OUTER = tuple(
    (ox, oy)
    for ox in (-2, 0, 2)
    for oy in (-2, 0, 2)
    if not (ox == 0 and oy == 0)
)
_INNER = tuple(
    (ox, oy)
    for ox in (-1, 0, 1)
    for oy in (-1, 0, 1)
    if not (ox == 0 and oy == 0)
)


@register_estimator("fss")
class FourStepEstimator(MotionEstimator):
    """Classic four-step search with half-pel refinement."""

    def __init__(
        self,
        p: int = 15,
        block_size: int = 16,
        half_pel: bool = True,
        max_recentres: int = 2,
    ) -> None:
        super().__init__(p=p, block_size=block_size, half_pel=half_pel)
        if max_recentres < 0:
            raise ValueError(f"max_recentres must be >= 0, got {max_recentres}")
        self.max_recentres = max_recentres

    def first_ring(self):
        """Centre plus the opening 5x5/step-2 pattern, batched across
        blocks by the frame driver."""
        return ((0, 0),) + _OUTER

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
        evaluator.evaluate_many(_OUTER)
        recentres = 0
        while (evaluator.best_dx, evaluator.best_dy) != (0, 0) and recentres < self.max_recentres:
            cx, cy = evaluator.best_dx, evaluator.best_dy
            evaluator.evaluate_many((cx + ox, cy + oy) for ox, oy in _OUTER)
            if (evaluator.best_dx, evaluator.best_dy) == (cx, cy):
                break
            recentres += 1
        cx, cy = evaluator.best_dx, evaluator.best_dy
        evaluator.evaluate_many((cx + ox, cy + oy) for ox, oy in _INNER)
        mv, best_sad = evaluator.best()
        positions = evaluator.positions
        if self.half_pel:
            mv, best_sad, extra = refine_half_pel(
                ctx.block, ctx.ref_plane, ctx.block_y, ctx.block_x, mv, best_sad, window
            )
            positions += extra
        return BlockResult(mv=mv, sad=best_sad, positions=positions)
