"""Three-step search (TSS) — Liu/Zeng/Liou [3] in the paper's taxonomy.

A coarse-to-fine pattern search: start with step ``ceil(p/2)`` (4 for
the classic ±7 window, 8 for the paper's ±15), evaluate the centre and
its 8 neighbours at that step, re-centre on the winner, halve the step
and repeat until step 1.  Included as the canonical member of the
"reduce the number of search points" family ACBM competes with.

Every stage runs for every block, so the whole-frame path
(:class:`repro.me.estimator.PatternSearchEstimator`) is one gather per
step size for the frame.
"""

from __future__ import annotations

from repro.me.candidates import UNIT_RING, BatchEvaluator, CandidateEvaluator, pattern_offsets
from repro.me.estimator import PatternSearchEstimator, register_estimator


def initial_step(p: int) -> int:
    """First TSS step size: the power of two just above half the window,
    ``2^(ceil(log2(p+1)) - 1)`` — the classic 4 for p=7, 8 for p=15."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    step = 1
    while step * 2 <= (p + 1) // 2:
        step *= 2
    return step


def scaled(pattern, step: int) -> tuple[tuple[int, int], ...]:
    """``pattern`` with every offset multiplied by ``step``."""
    return tuple((ox * step, oy * step) for ox, oy in pattern)


@register_estimator("tss")
class ThreeStepEstimator(PatternSearchEstimator):
    """Classic three-step search with half-pel refinement."""

    def walk(self, evaluator: CandidateEvaluator) -> None:
        evaluator.evaluate(0, 0)
        step = initial_step(self.p)
        while step >= 1:
            cx, cy = evaluator.best_dx, evaluator.best_dy
            evaluator.evaluate_many((cx + ox, cy + oy) for ox, oy in scaled(UNIT_RING, step))
            step //= 2

    def walk_frame(self, evaluator: BatchEvaluator) -> None:
        step = initial_step(self.p)
        evaluator.evaluate(evaluator.all, *pattern_offsets(((0, 0),) + scaled(UNIT_RING, step)))
        step //= 2
        while step >= 1:
            evaluator.evaluate_around(evaluator.all, scaled(UNIT_RING, step))
            step //= 2
