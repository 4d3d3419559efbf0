"""Unit tests for repro.me.metrics (the paper's Section 2-3 formulas)."""

import numpy as np
import pytest

from repro.me.metrics import (
    block_activity_map,
    intra_sad,
    sad,
    sad_deviation,
    sad_map,
)


class TestSad:
    def test_identical_blocks(self):
        block = np.full((16, 16), 77, dtype=np.uint8)
        assert sad(block, block) == 0

    def test_known_value(self):
        a = np.zeros((2, 2), dtype=np.uint8)
        b = np.array([[1, 2], [3, 4]], dtype=np.uint8)
        assert sad(a, b) == 10

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 256, (8, 8), dtype=np.uint8)
        b = rng.integers(0, 256, (8, 8), dtype=np.uint8)
        assert sad(a, b) == sad(b, a)

    def test_no_uint8_overflow(self):
        a = np.full((4, 4), 255, dtype=np.uint8)
        b = np.zeros((4, 4), dtype=np.uint8)
        assert sad(a, b) == 16 * 255

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sad(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_returns_python_int(self):
        assert isinstance(sad(np.zeros((2, 2)), np.ones((2, 2))), int)


class TestIntraSad:
    def test_flat_block_is_zero(self):
        assert intra_sad(np.full((16, 16), 93, dtype=np.uint8)) == 0.0

    def test_known_value(self):
        # mean = 2, |devs| = 1, 1, 1, 1
        block = np.array([[1, 3], [1, 3]], dtype=np.uint8)
        assert intra_sad(block) == 4.0

    def test_non_integer_mean(self):
        block = np.array([[0, 1], [1, 1]], dtype=np.uint8)
        # mean 0.75: |devs| = 0.75 + 3*0.25 = 1.5
        assert intra_sad(block) == pytest.approx(1.5)

    def test_scales_with_contrast(self):
        lo = np.tile(np.array([[100, 110]], dtype=np.uint8), (8, 8))
        hi = np.tile(np.array([[50, 200]], dtype=np.uint8), (8, 8))
        assert intra_sad(hi) > intra_sad(lo)

    def test_invariant_to_brightness_offset(self):
        rng = np.random.default_rng(1)
        block = rng.integers(10, 100, (16, 16))
        assert intra_sad(block + 50) == pytest.approx(intra_sad(block))


class TestSadDeviation:
    def test_all_equal_gives_zero(self):
        assert sad_deviation(np.full(25, 100)) == 0

    def test_known_value(self):
        assert sad_deviation(np.array([5, 7, 10])) == (0 + 2 + 5)

    def test_sharp_minimum_large_deviation(self):
        flat = np.full(100, 50)
        sharp = np.full(100, 50)
        sharp[0] = 0
        assert sad_deviation(sharp) > sad_deviation(flat)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sad_deviation(np.array([], dtype=np.int64))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sad_deviation(np.array([3, -1]))


class TestSadMap:
    def test_matches_naive_computation(self):
        rng = np.random.default_rng(2)
        block = rng.integers(0, 256, (4, 4), dtype=np.uint8)
        window = rng.integers(0, 256, (7, 9), dtype=np.uint8)
        got = sad_map(block, window)
        assert got.shape == (4, 6)
        for i in range(4):
            for j in range(6):
                assert got[i, j] == sad(block, window[i : i + 4, j : j + 4])

    def test_zero_at_true_position(self):
        rng = np.random.default_rng(3)
        window = rng.integers(0, 256, (20, 20), dtype=np.uint8)
        block = window[5:13, 7:15]
        got = sad_map(block, window)
        assert got[5, 7] == 0

    def test_window_too_small(self):
        with pytest.raises(ValueError):
            sad_map(np.zeros((8, 8)), np.zeros((4, 4)))

    def test_dtype_int64(self):
        got = sad_map(np.zeros((2, 2), dtype=np.uint8), np.zeros((4, 4), dtype=np.uint8))
        assert got.dtype == np.int64


class TestBlockActivityMap:
    def test_matches_per_block_intra_sad(self):
        rng = np.random.default_rng(6)
        plane = rng.integers(0, 256, (48, 64), dtype=np.uint8)
        amap = block_activity_map(plane)
        assert amap.shape == (3, 4)
        for r in range(3):
            for c in range(4):
                block = plane[16 * r : 16 * r + 16, 16 * c : 16 * c + 16]
                assert amap[r, c] == pytest.approx(intra_sad(block))

    def test_rejects_non_multiple(self):
        with pytest.raises(ValueError):
            block_activity_map(np.zeros((20, 32)))
