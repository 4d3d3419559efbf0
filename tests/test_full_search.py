"""Unit tests for repro.me.full_search (FSBM)."""

import numpy as np
import pytest

from repro.me.engine.reference_plane import ReferencePlane
from repro.me.estimator import BlockContext
from repro.me.full_search import FullSearchEstimator, full_search_sads, select_minimum
from repro.me.metrics import sad
from repro.me.types import MotionField, MotionVector

from .conftest import integer_pel, shifted_plane, textured_plane


def context(cur, ref, r=1, c=1, qp=16):
    rows, cols = cur.shape[0] // 16, cur.shape[1] // 16
    return BlockContext(cur, ref, r, c, MotionField.zeros(rows, cols), None, qp, ReferencePlane(ref))


class TestFullSearchSads:
    def test_shape_matches_window(self):
        ref = textured_plane(48, 64)
        sads, window = full_search_sads(ref, ref, 16, 16, p=7)
        assert sads.shape == (window.dy_max - window.dy_min + 1, window.dx_max - window.dx_min + 1)

    def test_interior_full_count(self):
        ref = textured_plane(96, 96)
        sads, window = full_search_sads(ref, ref, 40, 40, p=15)
        assert window.num_positions == 961
        assert sads.size == 961

    def test_values_match_direct_sad(self):
        ref = textured_plane(48, 64, seed=30)
        cur = textured_plane(48, 64, seed=31)
        sads, window = full_search_sads(cur, ref, 16, 16, p=3)
        block = cur[16:32, 16:32]
        for i, dy in enumerate(range(window.dy_min, window.dy_max + 1)):
            for j, dx in enumerate(range(window.dx_min, window.dx_max + 1)):
                assert sads[i, j] == sad(block, ref[16 + dy : 32 + dy, 16 + dx : 32 + dx])


class TestSelectMinimum:
    def test_picks_global_minimum(self):
        ref = textured_plane(64, 64, seed=32)
        cur = shifted_plane(ref, 2, -3)  # true mv = (+3, -2) px
        sads, window = full_search_sads(cur, ref, 32, 32, p=7)
        mv, best = select_minimum(sads, window)
        assert mv == MotionVector(6, -4)
        assert best == int(sads.min())

    def test_tiebreak_shortest_vector(self):
        flat = np.full((64, 64), 55, dtype=np.uint8)
        sads, window = full_search_sads(flat, flat, 32, 32, p=5)
        mv, best = select_minimum(sads, window)
        assert mv == MotionVector.zero()
        assert best == 0


class TestFullSearchEstimator:
    def test_registered_name(self):
        assert FullSearchEstimator().name == "fsbm"

    def test_recovers_global_translation(self):
        ref = textured_plane(64, 80, seed=33)
        cur = shifted_plane(ref, 1, 2)  # content moved (+1, +2)
        est = FullSearchEstimator(p=7)
        field, stats = est.estimate(cur, ref)
        # Interior blocks must all see mv = (-2, -1) px.
        assert field.get(1, 1) == MotionVector(-4, -2)
        assert field.get(2, 3) == MotionVector(-4, -2)

    def test_positions_969_interior(self):
        """The paper's FSBM reference count: 961 integer + 8 half-pel."""
        ref = textured_plane(96, 96, seed=34)
        est = FullSearchEstimator(p=15)
        result = est.search_block(context(ref, ref, r=2, c=2))
        assert result.positions == 969
        assert result.used_full_search

    def test_positions_clipped_at_corner(self):
        ref = textured_plane(96, 96, seed=35)
        est = FullSearchEstimator(p=15)
        result = est.search_block(context(ref, ref, r=0, c=0))
        # 16x16 window (displacements 0..15 each axis) + 3 half-pel.
        assert result.positions == 16 * 16 + 3

    def test_half_pel_motion_recovered(self):
        from repro.me.subpel import half_pel_block

        ref = textured_plane(64, 64, seed=36)
        cur = ref.copy()
        # Plant a half-pel-shifted copy at block (1, 1).
        cur[16:32, 16:32] = half_pel_block(ref, 32, 33, 16, 16)
        est = FullSearchEstimator(p=4)
        result = est.search_block(context(cur, ref))
        assert result.mv == MotionVector(1, 0)
        assert result.sad == 0

    def test_half_pel_off_gives_integer_vector(self, monkeypatch):
        """The integer-pel stage alone (:func:`integer_pel`): an integer
        vector and the 81 positions of p = 4, none from half-pel."""
        integer_pel(monkeypatch)
        ref = textured_plane(48, 64, seed=37)
        est = FullSearchEstimator(p=4)
        result = est.search_block(context(ref, ref))
        assert result.mv.is_integer_pel
        assert result.positions == 81

    def test_estimate_full_frame(self):
        ref = textured_plane(48, 64, seed=38)
        cur = shifted_plane(ref, 0, 1)
        est = FullSearchEstimator(p=3)
        field, stats = est.estimate(cur, ref)
        assert field.hx.shape == field.hy.shape == (3, 4)
        assert stats.blocks == 12
        assert stats.full_search_fraction == 1.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            FullSearchEstimator(p=0)

    def test_estimate_shape_mismatch(self):
        est = FullSearchEstimator(p=2)
        with pytest.raises(ValueError):
            est.estimate(np.zeros((48, 64), dtype=np.uint8), np.zeros((48, 48), dtype=np.uint8))
