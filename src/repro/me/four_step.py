"""Four-step search (4SS) — Po & Ma [4] in the paper's taxonomy.

Searches a 5x5 neighbourhood with a fixed step of 2: if the best point
is the window centre the step drops to 1 (final 3x3 stage), otherwise
the 5x5 pattern re-centres (classically at most twice before the final
stage; we keep that bound).  Exploits the centre-biased motion-vector
distribution of real video.

The whole-frame path (:class:`repro.me.estimator.PatternSearchEstimator`)
scores the opening pattern for every block in one gather, re-centres
the blocks whose best moved off the centre together (at most
``max_recentres`` gathers, blocks dropping out as their best settles)
and finishes with one gather of every block's 3x3 stage.
"""

from __future__ import annotations

import numpy as np

from repro.me.candidates import BatchEvaluator, CandidateEvaluator, pattern_offsets
from repro.me.estimator import PatternSearchEstimator, register_estimator

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
class FourStepEstimator(PatternSearchEstimator):
    """Classic four-step search with half-pel refinement."""

    #: Re-centrings of the 5x5 pattern before the final 3x3 stage.
    max_recentres = 2

    def walk(self, evaluator: CandidateEvaluator) -> None:
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

    def walk_frame(self, evaluator: BatchEvaluator) -> None:
        evaluator.evaluate(evaluator.all, *pattern_offsets(((0, 0),) + _OUTER))
        moving = np.flatnonzero((evaluator.dx != 0) | (evaluator.dy != 0))
        evaluator.descend(moving, _OUTER, self.max_recentres)
        evaluator.evaluate_around(evaluator.all, _INNER)
