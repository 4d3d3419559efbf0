"""New three-step search (NTSS) — Li, Zeng & Liou's centre-biased TSS.

NTSS fixes classic TSS's weakness on small displacements: the first
stage evaluates *both* the 8 step-sized TSS points and the 8 unit
neighbours of the centre.  If the best point is the centre, stop; if
it is one of the unit neighbours, one extra 3x3 stage around it
finishes (at most 5 new points); otherwise the ordinary TSS descent
continues.  Real-video vector fields are strongly centre-biased, so
the average cost drops well below TSS's while accuracy improves.

The whole-frame path (:class:`repro.me.estimator.PatternSearchEstimator`)
scores the first stage for every block in one gather, then splits the
blocks by which stop they take: one gather for the unit winners' 3x3
patches, one per remaining step size for the TSS continuation.

Not cited by the paper directly but contemporary with its baselines;
included in the ablation bench for completeness.
"""

from __future__ import annotations

import numpy as np

from repro.me.candidates import UNIT_RING, BatchEvaluator, CandidateEvaluator, pattern_offsets
from repro.me.estimator import PatternSearchEstimator, register_estimator
from repro.me.three_step import initial_step, scaled


@register_estimator("ntss")
class NewThreeStepEstimator(PatternSearchEstimator):
    """Centre-biased new three-step search with half-pel refinement."""

    def walk(self, evaluator: CandidateEvaluator) -> None:
        step = initial_step(self.p)
        # First stage: centre, unit ring and step-sized ring.
        evaluator.evaluate(0, 0)
        for ox, oy in UNIT_RING:
            evaluator.evaluate(ox, oy)
            evaluator.evaluate(ox * step, oy * step)
        best = (evaluator.best_dx, evaluator.best_dy)
        if best == (0, 0):
            pass  # first-step stop
        elif max(abs(best[0]), abs(best[1])) <= 1:
            # Second-step stop: a 3x3 patch around the unit winner.
            cx, cy = best
            evaluator.evaluate_many((cx + ox, cy + oy) for ox, oy in UNIT_RING)
        else:
            # Ordinary TSS continuation from the step-ring winner.
            step //= 2
            while step >= 1:
                cx, cy = evaluator.best_dx, evaluator.best_dy
                evaluator.evaluate_many((cx + ox, cy + oy) for ox, oy in scaled(UNIT_RING, step))
                step //= 2

    def walk_frame(self, evaluator: BatchEvaluator) -> None:
        step = initial_step(self.p)
        evaluator.evaluate(evaluator.all, *pattern_offsets(((0, 0),) + UNIT_RING + scaled(UNIT_RING, step)))
        reach = np.maximum(np.abs(evaluator.dx), np.abs(evaluator.dy))
        unit, rest = np.flatnonzero(reach == 1), np.flatnonzero(reach > 1)
        evaluator.evaluate_around(unit, UNIT_RING)
        step //= 2
        while step >= 1:
            evaluator.evaluate_around(rest, scaled(UNIT_RING, step))
            step //= 2

