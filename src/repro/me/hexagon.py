"""Hexagon-based search (HEXBS) — Zhu, Lin & Chau.

The pattern search that superseded diamond search in practical
encoders (x264's "hex"): a 6-point large hexagon walks greedily (each
re-centre adds only 3 new points thanks to pattern overlap — the
evaluator's cache makes that automatic), then a 4-point small diamond
finishes.  Included as the strongest classic baseline in the ablation
bench.

The whole-frame path (:class:`repro.me.estimator.PatternSearchEstimator`)
walks every block's hexagon together, one gather per recentring with
blocks dropping out as they settle, then one gather for the small
diamonds.
"""

from __future__ import annotations

from repro.me.candidates import BatchEvaluator, CandidateEvaluator
from repro.me.diamond import SMALL_DIAMOND
from repro.me.estimator import PatternSearchEstimator, register_estimator

#: Large hexagon: 6 points, radius 2 horizontally, (1, 2) diagonally.
LARGE_HEXAGON = ((-2, 0), (2, 0), (-1, -2), (1, -2), (-1, 2), (1, 2))


@register_estimator("hexbs")
class HexagonEstimator(PatternSearchEstimator):
    """Hexagon-based search with half-pel refinement."""

    #: Bound on the hexagon walk (as DS bounds its large diamond).
    max_recentres = 32

    def walk(self, evaluator: CandidateEvaluator) -> None:
        evaluator.evaluate(0, 0)
        evaluator.descend(LARGE_HEXAGON, self.max_recentres)
        cx, cy = evaluator.best_dx, evaluator.best_dy
        evaluator.evaluate_many((cx + ox, cy + oy) for ox, oy in SMALL_DIAMOND)

    def walk_frame(self, evaluator: BatchEvaluator) -> None:
        evaluator.evaluate(evaluator.all, 0, 0)
        evaluator.descend(evaluator.all, LARGE_HEXAGON, self.max_recentres)
        evaluator.evaluate_around(evaluator.all, SMALL_DIAMOND)
