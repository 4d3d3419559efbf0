"""New three-step search (NTSS) — Li, Zeng & Liou's centre-biased TSS.

NTSS fixes classic TSS's weakness on small displacements: the first
stage evaluates *both* the 8 step-sized TSS points and the 8 unit
neighbours of the centre.  If the best point is the centre, stop; if
it is one of the unit neighbours, one extra 3x3 stage around it
finishes (at most 5 new points); otherwise the ordinary TSS descent
continues.  Real-video vector fields are strongly centre-biased, so
the average cost drops well below TSS's while accuracy improves.

Not cited by the paper directly but contemporary with its baselines;
included in the ablation bench for completeness.
"""

from __future__ import annotations

from repro.me.candidates import CandidateEvaluator
from repro.me.estimator import BlockContext, MotionEstimator, register_estimator
from repro.me.search_window import clamped_window
from repro.me.subpel import refine_half_pel
from repro.me.three_step import initial_step
from repro.me.types import BlockResult

_UNIT_RING = ((-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1))


@register_estimator("ntss")
class NewThreeStepEstimator(MotionEstimator):
    """Centre-biased new three-step search with half-pel refinement."""

    def first_ring(self):
        """Centre, the unit ring and the step-sized ring — NTSS's fixed
        first stage, batched across blocks by the frame driver."""
        step = initial_step(self.p)
        ring = [(0, 0)]
        for ox, oy in _UNIT_RING:
            ring.append((ox, oy))
            if (ox * step, oy * step) not in ring:
                ring.append((ox * step, oy * step))
        return tuple(ring)

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
        # First stage: step-sized ring plus the unit ring.
        for ox, oy in _UNIT_RING:
            evaluator.evaluate(ox, oy)
            evaluator.evaluate(ox * step, oy * step)
        best = (evaluator.best_dx, evaluator.best_dy)
        if best == (0, 0):
            pass  # first-step stop
        elif max(abs(best[0]), abs(best[1])) <= 1:
            # Second-step stop: a 3x3 patch around the unit winner.
            cx, cy = best
            evaluator.evaluate_many((cx + ox, cy + oy) for ox, oy in _UNIT_RING)
        else:
            # Ordinary TSS continuation from the step-ring winner.
            step //= 2
            while step >= 1:
                cx, cy = evaluator.best_dx, evaluator.best_dy
                evaluator.evaluate_many(
                    (cx + ox * step, cy + oy * step) for ox, oy in _UNIT_RING
                )
                step //= 2
        mv, best_sad = evaluator.best()
        positions = evaluator.positions
        if self.half_pel:
            mv, best_sad, extra = refine_half_pel(
                ctx.block, ctx.ref_plane, ctx.block_y, ctx.block_x, mv, best_sad, window
            )
            positions += extra
        return BlockResult(mv=mv, sad=best_sad, positions=positions)
