"""Cross-diamond search (CDS) — Cheung & Po [5] in the paper's taxonomy.

Starts with a 9-point cross whose early-termination rule exploits the
strongly centre-biased MV distribution of real video (most blocks stop
after <= 9 evaluations), then falls back to the diamond walk of DS for
the minority of moving blocks.

The whole-frame path (:class:`repro.me.estimator.PatternSearchEstimator`)
scores the small cross for every block in one gather and applies the
two conditional stops as masks: only blocks whose best left the centre
score the cross arms, and only those whose best then lies beyond the
small cross take the diamond walk, together.
"""

from __future__ import annotations

import numpy as np

from repro.me.candidates import BatchEvaluator, CandidateEvaluator, pattern_offsets
from repro.me.diamond import LARGE_DIAMOND, SMALL_DIAMOND
from repro.me.estimator import PatternSearchEstimator, register_estimator

#: Central 3x3 cross (L1 radius 1) plus the radius-2 cross arms.
_CROSS_CENTRE = ((0, -1), (-1, 0), (1, 0), (0, 1))
_CROSS_ARMS = ((0, -2), (-2, 0), (2, 0), (0, 2))


@register_estimator("cds")
class CrossDiamondEstimator(PatternSearchEstimator):
    """Cross-diamond search with half-pel refinement."""

    #: Bound on the diamond walk of the moving blocks (as in DS).
    max_recentres = 32

    def walk(self, evaluator: CandidateEvaluator) -> None:
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

    def walk_frame(self, evaluator: BatchEvaluator) -> None:
        evaluator.evaluate(evaluator.all, *pattern_offsets(((0, 0),) + _CROSS_CENTRE))
        moved = np.flatnonzero((evaluator.dx != 0) | (evaluator.dy != 0))
        evaluator.evaluate(moved, *pattern_offsets(_CROSS_ARMS))
        far = moved[np.abs(evaluator.dx[moved]) + np.abs(evaluator.dy[moved]) > 1]
        evaluator.descend(far, LARGE_DIAMOND, self.max_recentres)
        evaluator.evaluate_around(far, SMALL_DIAMOND)
