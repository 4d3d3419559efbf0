"""Diamond search (DS).

The workhorse fast search of MPEG-4-era encoders: a large diamond
pattern (9 points) is greedily re-centred until its best point is the
centre, then one small diamond (4 points) finishes.  Serves as a
baseline between TSS and the predictive search in the ablation bench.

The whole-frame path (:class:`repro.me.estimator.PatternSearchEstimator`)
walks every block's large diamond together — one gather per
recentring, at most :attr:`DiamondEstimator.max_recentres` (32), each
block dropping out once its centre wins — then scores every block's
small diamond in one more gather.  HEXBS and CDS bound their walks the
same way.
"""

from __future__ import annotations

from repro.me.candidates import BatchEvaluator, CandidateEvaluator
from repro.me.estimator import PatternSearchEstimator, register_estimator

#: Large diamond: centre plus 8 points at L1 radius 2.
LARGE_DIAMOND = ((0, -2), (-1, -1), (1, -1), (-2, 0), (2, 0), (-1, 1), (1, 1), (0, 2))

#: Small diamond: 4 points at L1 radius 1.
SMALL_DIAMOND = ((0, -1), (-1, 0), (1, 0), (0, 1))


@register_estimator("ds")
class DiamondEstimator(PatternSearchEstimator):
    """Classic two-pattern diamond search with half-pel refinement."""

    #: Bound on the large-diamond walk, so worst-case cost stays finite
    #: even on pathological (periodic) content.
    max_recentres = 32

    def walk(self, evaluator: CandidateEvaluator) -> None:
        evaluator.evaluate(0, 0)
        evaluator.descend(LARGE_DIAMOND, self.max_recentres)
        cx, cy = evaluator.best_dx, evaluator.best_dy
        evaluator.evaluate_many((cx + ox, cy + oy) for ox, oy in SMALL_DIAMOND)

    def walk_frame(self, evaluator: BatchEvaluator) -> None:
        evaluator.evaluate(evaluator.all, 0, 0)
        evaluator.descend(evaluator.all, LARGE_DIAMOND, self.max_recentres)
        evaluator.evaluate_around(evaluator.all, SMALL_DIAMOND)
