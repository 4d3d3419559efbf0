"""Unit tests for repro.me.subpel (H.263 half-pel interpolation)."""

import numpy as np
import pytest

from repro.me.engine.reference_plane import ReferencePlane
from repro.me.search_window import SearchWindow, clamped_window
from repro.me.subpel import half_pel_block, predict_block, refine_half_pel
from repro.me.types import MotionVector

from .conftest import textured_plane


class TestHalfPelBlock:
    def test_integer_position_is_copy(self):
        ref = textured_plane(32, 32)
        out = half_pel_block(ref, 6, 10, 8, 8)
        np.testing.assert_array_equal(out, ref[3:11, 5:13])

    def test_horizontal_half_rounding(self):
        ref = np.array([[10, 13]], dtype=np.uint8)
        out = half_pel_block(ref, 0, 1, 1, 1)
        # (10 + 13 + 1) >> 1 = 12 — upward rounding per H.263.
        assert out[0, 0] == 12

    def test_vertical_half_rounding(self):
        ref = np.array([[10], [13]], dtype=np.uint8)
        out = half_pel_block(ref, 1, 0, 1, 1)
        assert out[0, 0] == 12

    def test_centre_rounding(self):
        ref = np.array([[1, 2], [3, 5]], dtype=np.uint8)
        out = half_pel_block(ref, 1, 1, 1, 1)
        # (1 + 2 + 3 + 5 + 2) >> 2 = 3
        assert out[0, 0] == 3

    def test_support_check(self):
        ref = np.zeros((8, 8), dtype=np.uint8)
        with pytest.raises(ValueError, match="support"):
            half_pel_block(ref, 1, 0, 8, 8)  # needs row 8 for interpolation
        # Integer position at the very edge is fine.
        half_pel_block(ref, 0, 0, 8, 8)

    def test_output_dtype_uint8(self):
        ref = np.full((4, 4), 255, dtype=np.uint8)
        assert half_pel_block(ref, 1, 1, 2, 2).dtype == np.uint8

    def test_range_preserved(self):
        ref = np.full((4, 4), 255, dtype=np.uint8)
        assert half_pel_block(ref, 1, 1, 2, 2).max() == 255


class TestRefineHalfPel:
    def test_exact_half_pel_motion_recovered(self):
        """Content shifted by exactly 0.5 px: refinement must beat the
        integer anchor."""
        ref = textured_plane(48, 64, seed=11)
        # Current block = half-pel interpolated reference at (+0.5, 0).
        cur_block = half_pel_block(ref, 2 * 16, 2 * 16 + 1, 16, 16)
        window = clamped_window(16, 16, 16, 16, 48, 64, p=4)
        from repro.me.metrics import sad

        anchor = MotionVector(0, 0)
        anchor_sad = sad(cur_block, ref[16:32, 16:32])
        mv, best_sad, evaluated = refine_half_pel(
            cur_block, ReferencePlane(ref), 16, 16, anchor, anchor_sad, window
        )
        assert mv == MotionVector(1, 0)
        assert best_sad == 0
        assert evaluated == 8

    def test_rejects_half_pel_anchor(self):
        ref = np.zeros((32, 32), dtype=np.uint8)
        window = SearchWindow(-2, 2, -2, 2)
        with pytest.raises(ValueError, match="integer-pel"):
            refine_half_pel(ref[:16, :16], ReferencePlane(ref), 8, 8, MotionVector(1, 0), 0, window)

    def test_corner_block_skips_outside_candidates(self):
        ref = textured_plane(48, 64, seed=12)
        cur = ref.copy()
        window = clamped_window(0, 0, 16, 16, 48, 64, p=4)
        from repro.me.metrics import sad

        anchor_sad = sad(cur[:16, :16], ref[:16, :16])
        _, _, evaluated = refine_half_pel(
            cur[:16, :16], ReferencePlane(ref), 0, 0, MotionVector(0, 0), anchor_sad, window
        )
        # At the top-left corner only the 3 inward half-pel neighbours exist.
        assert evaluated == 3

    def test_never_worse_than_anchor(self):
        ref = textured_plane(48, 64, seed=13)
        cur = textured_plane(48, 64, seed=14)
        window = clamped_window(16, 16, 16, 16, 48, 64, p=4)
        from repro.me.metrics import sad

        anchor_sad = sad(cur[16:32, 16:32], ref[16:32, 16:32])
        _, best_sad, _ = refine_half_pel(
            cur[16:32, 16:32], ReferencePlane(ref), 16, 16, MotionVector(0, 0), anchor_sad, window
        )
        assert best_sad <= anchor_sad


class TestPredictBlock:
    def test_integer_fast_path(self):
        ref = textured_plane(48, 64, seed=15)
        out = predict_block(ref, 16, 16, MotionVector(4, -2), 16, 16)
        np.testing.assert_array_equal(out, ref[15:31, 18:34])

    def test_half_pel_path_matches_half_pel_block(self):
        ref = textured_plane(48, 64, seed=16)
        mv = MotionVector(3, 1)
        out = predict_block(ref, 16, 16, mv, 16, 16)
        np.testing.assert_array_equal(out, half_pel_block(ref, 33, 35, 16, 16))

    def test_out_of_plane_rejected(self):
        ref = np.zeros((48, 64), dtype=np.uint8)
        with pytest.raises(ValueError):
            predict_block(ref, 0, 0, MotionVector(-2, 0), 16, 16)
