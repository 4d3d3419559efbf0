"""Unit tests for repro.me.candidates.CandidateEvaluator."""

import numpy as np
import pytest

from repro.me.candidates import UNIT_RING, BatchEvaluator, CandidateEvaluator
from repro.me.diamond import LARGE_DIAMOND
from repro.me.engine.reference_plane import ReferencePlane
from repro.me.metrics import sad
from repro.me.hexagon import LARGE_HEXAGON
from repro.me.search_window import SearchWindow, clamped_window
from repro.me.types import MotionVector

from .conftest import grained, shifted_plane, textured_plane


def make_evaluator(seed=20, dy=0, dx=0, p=6):
    ref = textured_plane(48, 64, seed=seed)
    cur = shifted_plane(ref, dy, dx)
    window = SearchWindow(-p, p, -p, p)
    block = cur[16:32, 16:32]
    return CandidateEvaluator(block, ReferencePlane(ref), 16, 16, window), ref, cur


class TestEvaluate:
    def test_counts_distinct_positions(self):
        ev, _, _ = make_evaluator()
        ev.evaluate(0, 0)
        ev.evaluate(1, 0)
        ev.evaluate(0, 0)  # revisit: cached, not recounted
        assert ev.positions == 2

    def test_outside_window_returns_none(self):
        ev, _, _ = make_evaluator(p=2)
        assert ev.evaluate(3, 0) is None
        assert ev.positions == 0

    def test_sad_value_correct(self):
        ev, ref, cur = make_evaluator()
        value = ev.evaluate(2, -1)
        assert value == sad(cur[16:32, 16:32], ref[15:31, 18:34])

    def test_best_tracks_minimum(self):
        ev, _, _ = make_evaluator(dy=0, dx=-2)  # true displacement (dx=+2)
        for d in range(-3, 4):
            ev.evaluate(d, 0)
        mv, best = ev.best()
        assert mv == MotionVector(4, 0)
        assert best == ev.evaluate(2, 0)

    def test_tiebreak_prefers_shorter_vector(self):
        # Flat content: every candidate ties at SAD ~0.
        flat = np.full((48, 64), 90, dtype=np.uint8)
        ev = CandidateEvaluator(
            flat[16:32, 16:32], ReferencePlane(flat), 16, 16, SearchWindow(-3, 3, -3, 3)
        )
        ev.evaluate(3, 3)
        ev.evaluate(0, 0)
        ev.evaluate(-2, 0)
        mv, best = ev.best()
        assert mv == MotionVector.zero()
        assert best == 0

    def test_best_before_any_evaluation_raises(self):
        ev, _, _ = make_evaluator()
        with pytest.raises(RuntimeError):
            ev.best()

    def test_evaluate_many(self):
        ev, _, _ = make_evaluator()
        ev.evaluate_many([(0, 0), (1, 1), (-1, -1)])
        assert ev.positions == 3


class TestDescend:
    def test_finds_translation_within_reach(self):
        ring = [(-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1)]
        ev, _, _ = make_evaluator(dy=0, dx=-3)
        ev.evaluate(0, 0)
        ev.descend(ring, max_steps=5)
        mv, best = ev.best()
        assert mv == MotionVector(6, 0)

    def test_step_bound_limits_reach(self):
        ring = [(-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1)]
        ev, _, _ = make_evaluator(dy=0, dx=-5)
        ev.evaluate(0, 0)
        ev.descend(ring, max_steps=2)
        mv, _ = ev.best()
        assert abs(mv.hx) <= 4  # at most 2 px of travel from the origin

    def test_stops_early_at_minimum(self):
        ring = [(0, -1), (-1, 0), (1, 0), (0, 1)]
        ev, _, _ = make_evaluator(dy=0, dx=0)
        ev.evaluate(0, 0)
        ev.descend(ring, max_steps=50)
        # One ring around the optimum, nothing more.
        assert ev.positions == 5


class TestBatchDescend:
    """:meth:`BatchEvaluator.descend` against
    :meth:`CandidateEvaluator.descend`, block for block, at the step
    bounds the searches' walks stop at (no step, one, two) — on a plane
    whose edge windows clamp, quantised to two levels or kept at 256,
    and made piecewise constant over 8- or 16-pixel cells
    (:func:`grained`), so SADs tie across whole runs of displacements."""

    @pytest.mark.parametrize("max_steps", [0, 1, 2])
    @pytest.mark.parametrize(
        "pattern", [UNIT_RING, LARGE_DIAMOND, LARGE_HEXAGON], ids=["ring", "diamond", "hexagon"]
    )
    @pytest.mark.parametrize("levels", [2, 256])
    @pytest.mark.parametrize("grain", [8, 16])
    def test_matches_per_block_descend(self, grain, levels, pattern, max_steps):
        p, s = 7, 16
        ref = grained(textured_plane(80, 96, seed=24) // (256 // levels) * (256 // levels), grain)
        cur = shifted_plane(ref, 3, -4)
        plane = ReferencePlane(ref)
        mb_rows, mb_cols = np.divmod(np.arange(5 * 6), 6)
        batch = BatchEvaluator(cur, plane, mb_rows, mb_cols, p)
        batch.evaluate(batch.all, 0, 0)
        batch.descend(batch.all, pattern, max_steps)
        positions = batch.positions()
        for i, (r, c) in enumerate(zip(mb_rows.tolist(), mb_cols.tolist())):
            window = clamped_window(r * s, c * s, s, s, *ref.shape, p)
            block = cur[r * s : (r + 1) * s, c * s : (c + 1) * s]
            single = CandidateEvaluator(block, plane, r * s, c * s, window)
            single.evaluate(0, 0)
            single.descend(pattern, max_steps)
            got = (int(batch.dx[i]), int(batch.dy[i]), int(batch.rank[i] >> 30), int(positions[i]))
            assert got == (single.best_dx, single.best_dy, single.best_sad, single.positions)
