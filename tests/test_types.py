"""Unit tests for repro.me.types."""

import numpy as np
import pytest

from repro.me.types import BlockResult, MotionField, MotionVector


class TestMotionVector:
    def test_half_pel_representation(self):
        mv = MotionVector(3, -2)
        assert mv.x_pixels == 1.5
        assert mv.y_pixels == -1.0

    def test_rejects_non_integer_components(self):
        with pytest.raises(TypeError):
            MotionVector(1.5, 0)

    def test_accepts_numpy_integers(self):
        mv = MotionVector(np.int64(4), np.int32(-6))
        assert (mv.hx, mv.hy) == (4, -6)
        assert isinstance(mv.hx, int)

    def test_zero(self):
        assert MotionVector.zero().is_zero
        assert not MotionVector(1, 0).is_zero

    def test_integer_pel_predicate(self):
        assert MotionVector(4, -2).is_integer_pel
        assert not MotionVector(3, 0).is_integer_pel

    def test_algebra(self):
        a = MotionVector(2, 4)
        b = MotionVector(-1, 1)
        assert a + b == MotionVector(1, 5)
        assert a - b == MotionVector(3, 3)
        assert -a == MotionVector(-2, -4)

    def test_hashable_and_equal(self):
        assert len({MotionVector(1, 2), MotionVector(1, 2), MotionVector(2, 1)}) == 2

    def test_repr_in_pixels(self):
        assert repr(MotionVector(3, -4)) == "MV(+1.5, -2)"


class TestBlockResult:
    def test_valid(self):
        r = BlockResult(mv=MotionVector.zero(), sad=10, positions=5)
        assert not r.used_full_search

    def test_negative_sad_rejected(self):
        with pytest.raises(ValueError):
            BlockResult(mv=MotionVector.zero(), sad=-1, positions=1)

    def test_zero_positions_rejected(self):
        with pytest.raises(ValueError):
            BlockResult(mv=MotionVector.zero(), sad=0, positions=0)


class TestMotionField:
    def test_starts_unset(self):
        """An entry not yet set reads as the zero vector."""
        field = MotionField.zeros(2, 3)
        assert field.get(0, 0) == MotionVector.zero()

    def test_set_get(self):
        field = MotionField.zeros(2, 3)
        field.set(1, 2, MotionVector(4, 6))
        assert field.get(1, 2) == MotionVector(4, 6)

    def test_to_arrays(self):
        """The field is its arrays: ``set`` writes the grids in place."""
        field = MotionField.zeros(2, 2)
        field.set(0, 1, MotionVector(3, -5))
        assert field.hx[0, 1] == 3
        assert field.hy[0, 1] == -5
        assert field.hx.shape == (2, 2)

    def test_iteration_raster_order(self):
        """Grid cell ``(r, c)`` is flat index ``r * cols + c``, the raster
        order the frame drivers' flat block indices use."""
        field = MotionField.zeros(2, 2)
        for i, (r, c) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            field.set(r, c, MotionVector(2 * i, -i))
        assert field.hx.ravel().tolist() == [0, 2, 4, 6]
        assert field.hy.ravel().tolist() == [0, -1, -2, -3]

    def test_out_of_range_get_returns_none(self):
        field = MotionField.zeros(2, 2)
        assert field.get(-1, 0) is None
        assert field.get(0, 5) is None

    def test_out_of_range_set_raises(self):
        with pytest.raises(IndexError):
            MotionField.zeros(2, 2).set(2, 0, MotionVector.zero())

    def test_zeros_constructor(self):
        field = MotionField.zeros(3, 4)
        assert (field.mb_rows, field.mb_cols) == (3, 4)
        assert not field.hx.any() and not field.hy.any()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MotionField.zeros(0, 5)

    def test_grids_are_owned_int64(self):
        hx = np.array([[1, 2]], dtype=np.int16)
        field = MotionField(hx, np.zeros((1, 2), dtype=np.uint8))
        hx[0, 0] = 9
        assert field.hx.dtype == field.hy.dtype == np.int64
        assert field.get(0, 0) == MotionVector(1, 0)

    @pytest.mark.parametrize(
        "hx, hy, error",
        [
            (np.zeros((2, 3)), np.zeros((2, 3), dtype=np.int64), TypeError),
            (np.zeros((2, 3), dtype=np.int64), np.zeros((2, 3), dtype=np.float32), TypeError),
            (np.zeros(6, dtype=np.int64), np.zeros(6, dtype=np.int64), ValueError),
            (np.zeros((2, 3), dtype=np.int64), np.zeros((3, 2), dtype=np.int64), ValueError),
        ],
        ids=["float-hx", "float-hy", "1-D", "mismatched"],
    )
    def test_constructor_rejects_malformed_grids(self, hx, hy, error):
        with pytest.raises(error):
            MotionField(hx, hy)

    def test_repr_counts(self):
        assert repr(MotionField.zeros(2, 3)) == "MotionField(2x3)"
