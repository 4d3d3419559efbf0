"""Unit tests for repro.video.frame."""

import numpy as np
import pytest

from repro.codec.macroblock import macroblock_views
from repro.video.frame import (
    CIF,
    MACROBLOCK_SIZE,
    QCIF,
    Frame,
    FrameGeometry,
)

from .conftest import grey_frame


class TestFrameGeometry:
    def test_qcif_dimensions(self):
        assert (QCIF.width, QCIF.height) == (176, 144)

    def test_cif_dimensions(self):
        assert (CIF.width, CIF.height) == (352, 288)

    def test_qcif_macroblock_grid(self):
        assert (QCIF.mb_cols, QCIF.mb_rows) == (11, 9)

    def test_chroma_dimensions_are_half(self):
        assert QCIF.chroma_width == 88
        assert QCIF.chroma_height == 72

    def test_pixels(self):
        assert QCIF.pixels == 176 * 144

    @pytest.mark.parametrize("w,h", [(0, 16), (16, 0), (-16, 16)])
    def test_rejects_non_positive(self, w, h):
        with pytest.raises(ValueError):
            FrameGeometry(w, h)

    @pytest.mark.parametrize("w,h", [(17, 16), (16, 20), (100, 100)])
    def test_rejects_non_multiple_of_16(self, w, h):
        with pytest.raises(ValueError):
            FrameGeometry(w, h)

    def test_equality(self):
        assert FrameGeometry(176, 144) == QCIF


class TestFrame:
    def test_default_chroma_is_neutral_grey(self):
        frame = grey_frame(QCIF)
        assert (frame.cb == 128).all()
        assert (frame.cr == 128).all()

    def test_geometry_roundtrip(self):
        frame = grey_frame(CIF)
        assert frame.geometry == CIF
        assert (frame.width, frame.height) == (352, 288)

    def test_rejects_wrong_chroma_shape(self):
        y = np.zeros((48, 64), dtype=np.uint8)
        bad_cb = np.zeros((24, 30), dtype=np.uint8)
        with pytest.raises(ValueError, match="Cb"):
            Frame(y, bad_cb, np.zeros((24, 32), dtype=np.uint8))

    def test_rejects_one_dimensional_luma(self):
        with pytest.raises(ValueError):
            Frame(np.zeros(176, dtype=np.uint8))

    def test_float_input_is_rounded_and_clamped(self):
        y = np.full((48, 64), 300.0)
        y[0, 0] = -5.0
        y[0, 1] = 127.5
        frame = Frame(y)
        assert frame.y[0, 0] == 0
        assert frame.y[0, 1] == 128
        assert frame.y[1, 1] == 255
        assert frame.y.dtype == np.uint8

    def test_luma_block_is_view(self):
        """A macroblock's luma block is a view: the spatially predicted
        I-frame reconstruction writes through it."""
        frame = grey_frame(QCIF)
        block, _, _ = macroblock_views((frame.y, frame.cb, frame.cr), 0, 0)
        block[:] = 7
        assert frame.y[0, 0] == 7

    def test_luma_block_positions(self):
        y = np.arange(48 * 64, dtype=np.float64).reshape(48, 64) % 251
        frame = Frame(y)
        block, cb, _ = macroblock_views((frame.y, frame.cb, frame.cr), 1, 2)
        np.testing.assert_array_equal(block, frame.y[16:32, 32:48])
        assert block.shape == (MACROBLOCK_SIZE, MACROBLOCK_SIZE)
        assert cb.shape == (MACROBLOCK_SIZE // 2, MACROBLOCK_SIZE // 2)

    def test_copy_is_independent(self):
        frame = grey_frame(QCIF)
        clone = frame.copy()
        clone.y[0, 0] = 9
        assert frame.y[0, 0] == 128

    def test_equality_by_pixels(self):
        a = grey_frame(QCIF, value=100)
        b = grey_frame(QCIF, value=100)
        c = grey_frame(QCIF, value=101)
        assert a == b
        assert a != c

    def test_equality_ignores_index(self):
        a = grey_frame(QCIF, index=0)
        b = grey_frame(QCIF, index=5)
        assert a == b

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(grey_frame(QCIF))

    def test_repr(self):
        assert "176x144" in repr(grey_frame(QCIF, index=3))
