"""Unit tests for repro.me.predictive (PBM)."""

import numpy as np
import pytest

from repro.me.engine.reference_plane import ReferencePlane
from repro.me.estimator import BlockContext
from repro.me.predictive import PredictiveEstimator, gather_predictors
from repro.me.types import MotionField, MotionVector

from .conftest import integer_pel, pinned, shifted_plane, textured_plane


class TestGatherPredictors:
    def test_zero_always_first(self):
        field = MotionField.zeros(3, 3)
        preds = gather_predictors(0, 0, field, None)
        assert preds == [MotionVector.zero()]

    def test_spatial_neighbours_collected(self):
        field = MotionField.zeros(3, 3)
        field.set(1, 0, MotionVector(2, 0))   # left
        field.set(0, 0, MotionVector(4, 0))   # top-left
        field.set(0, 1, MotionVector(6, 0))   # top
        field.set(0, 2, MotionVector(8, 0))   # top-right
        preds = gather_predictors(1, 1, field, None)
        assert preds == [
            MotionVector.zero(),
            MotionVector(2, 0),
            MotionVector(4, 0),
            MotionVector(6, 0),
            MotionVector(8, 0),
        ]

    def test_temporal_neighbours_collected(self):
        field = MotionField.zeros(3, 3)
        prev = MotionField.zeros(3, 3)
        prev.set(1, 1, MotionVector(10, 0))   # collocated
        prev.set(1, 2, MotionVector(12, 0))   # right
        prev.set(2, 1, MotionVector(14, 0))   # below
        prev.set(2, 2, MotionVector(16, 0))   # below-right
        preds = gather_predictors(1, 1, field, prev)
        assert MotionVector(10, 0) in preds
        assert MotionVector(12, 0) in preds
        assert MotionVector(14, 0) in preds
        assert MotionVector(16, 0) in preds

    def test_duplicates_collapsed(self):
        field = MotionField.zeros(2, 2)
        field.set(0, 0, MotionVector.zero())
        field.set(0, 1, MotionVector.zero())
        preds = gather_predictors(1, 1, field, None)
        assert preds == [MotionVector.zero()]

    def test_borders_skip_missing(self):
        field = MotionField.zeros(2, 2)
        preds = gather_predictors(0, 1, field, None)  # top row: no above
        assert preds == [MotionVector.zero()]


def context(cur, ref, r, c, field=None, prev=None, qp=16):
    rows, cols = cur.shape[0] // 16, cur.shape[1] // 16
    return BlockContext(
        cur, ref, r, c, field or MotionField.zeros(rows, cols), prev, qp, ReferencePlane(ref)
    )


class TestPredictiveEstimator:
    def test_registered_name(self):
        assert PredictiveEstimator().name == "pbm"

    def test_zero_motion_is_cheap(self):
        ref = textured_plane(48, 64, seed=40)
        est = PredictiveEstimator(p=15)
        result = est.search_block(context(ref, ref, 1, 1))
        assert result.mv == MotionVector.zero()
        # zero predictor + one ring + half-pel: far below FSBM's 969.
        assert result.positions <= 20
        assert not result.used_full_search

    def test_small_translation_found(self):
        ref = textured_plane(48, 64, seed=41)
        cur = shifted_plane(ref, 0, 2)
        est = PredictiveEstimator(p=15)
        result = est.search_block(context(cur, ref, 1, 1))
        assert result.mv == MotionVector(-4, 0)

    def test_spatial_propagation_extends_reach(self):
        """A displacement beyond the descent bound is still found when a
        neighbour already carries it — the wavefront effect."""
        ref = textured_plane(48, 96, seed=42)
        cur = shifted_plane(ref, 0, -6)  # true mv = (+6, 0) px
        est = PredictiveEstimator(p=15)
        rows, cols = 3, 6
        field = MotionField.zeros(rows, cols)
        # Estimate the whole frame in raster order (what estimate() does).
        frame_field, _ = est.estimate(cur, ref)
        # Blocks away from the left border have converged to the truth.
        assert frame_field.get(1, 3) == MotionVector(12, 0)
        assert frame_field.get(1, 4) == MotionVector(12, 0)

    def test_temporal_predictor_used(self):
        ref = textured_plane(48, 64, seed=43)
        cur = shifted_plane(ref, 0, -5)  # true mv (+5, 0): beyond descent
        prev = MotionField(np.full((3, 4), 10), np.zeros((3, 4), np.int64))  # perfect temporal hint
        est = PredictiveEstimator(p=15)
        result = est.search_block(context(cur, ref, 1, 1, prev=prev))
        assert result.mv == MotionVector(10, 0)

    def test_refine_steps_zero_keeps_predictor(self, monkeypatch):
        """With the descent bound pinned at 0 (:func:`pinned`) and the
        integer-pel stage alone (:func:`integer_pel`), the winning
        predictor is the answer."""
        integer_pel(monkeypatch)
        ref = textured_plane(48, 64, seed=44)
        cur = shifted_plane(ref, 0, -1)
        est = pinned(PredictiveEstimator, refine_steps=0)(p=15)
        result = est.search_block(context(cur, ref, 1, 1))
        # Only the zero predictor is available; no descent happens.
        assert result.mv == MotionVector.zero()

    def test_invalid_refine_steps(self):
        """The descent bound is a class constant, not an argument."""
        with pytest.raises(TypeError, match="refine_steps"):
            PredictiveEstimator(refine_steps=-1)

    def test_positions_far_below_fsbm(self):
        ref = textured_plane(48, 64, seed=45)
        cur = shifted_plane(ref, 1, 1)
        est = PredictiveEstimator(p=15)
        _, stats = est.estimate(cur, ref)
        assert stats.avg_positions_per_block < 60
        assert stats.full_search_fraction == 0.0

    def test_half_pel_vector_possible(self):
        from repro.me.subpel import half_pel_block

        ref = textured_plane(48, 64, seed=46)
        cur = ref.copy()
        cur[16:32, 16:32] = half_pel_block(ref, 32, 33, 16, 16)
        est = PredictiveEstimator(p=4)
        result = est.search_block(context(cur, ref, 1, 1))
        assert result.mv == MotionVector(1, 0)
        assert result.sad == 0

    def test_predictor_clamped_into_window(self):
        """A huge temporal predictor near the frame border must clamp,
        not crash."""
        ref = textured_plane(48, 64, seed=47)
        prev = MotionField.zeros(3, 4)
        prev.set(0, 0, MotionVector(30, 30))
        est = PredictiveEstimator(p=15)
        result = est.search_block(context(ref, ref, 0, 0, prev=prev))
        assert result.mv == MotionVector.zero()  # clamp then descend home
