"""Unit tests for repro.analysis.psnr."""

import math

import numpy as np
import pytest

from repro.analysis.psnr import plane_mse, psnr, sequence_psnr
from repro.video.frame import QCIF

from .conftest import grey_frame


class TestPlaneMse:
    def test_identical(self):
        plane = np.random.default_rng(0).integers(0, 256, (16, 16))
        assert plane_mse(plane, plane) == 0.0

    def test_known_value(self):
        a = np.zeros((2, 2))
        b = np.array([[2, 0], [0, 2]])
        assert plane_mse(a, b) == 2.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            plane_mse(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            plane_mse(np.zeros((0, 2)), np.zeros((0, 2)))


class TestPsnr:
    def test_identical_is_infinite(self):
        plane = np.full((8, 8), 7)
        assert psnr(plane, plane) == math.inf

    def test_uniform_error_formula(self):
        a = np.zeros((8, 8))
        b = np.full((8, 8), 16.0)
        # PSNR = 10 log10(255^2 / 256) ≈ 24.05 dB
        assert psnr(a, b) == pytest.approx(10 * math.log10(255**2 / 256), abs=1e-9)

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 256, (16, 16))
        b = rng.integers(0, 256, (16, 16))
        assert psnr(a, b) == psnr(b, a)

    def test_typical_video_range(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 256, (64, 64)).astype(np.float64)
        b = np.clip(a + rng.normal(0, 5, a.shape), 0, 255)
        assert 30.0 < psnr(a, b) < 40.0


class TestSequencePsnr:
    def test_mean_over_frames(self):
        originals = [grey_frame(QCIF, value=100), grey_frame(QCIF, value=100)]
        recon = [grey_frame(QCIF, value=100), grey_frame(QCIF, value=104)]
        value = sequence_psnr(originals, recon)
        assert value == math.inf or value > 30  # inf + finite → numpy mean inf
        # Make both finite for a concrete check:
        recon2 = [grey_frame(QCIF, value=102), grey_frame(QCIF, value=104)]
        expected = (psnr(originals[0].y, recon2[0].y) + psnr(originals[1].y, recon2[1].y)) / 2
        assert sequence_psnr(originals, recon2) == pytest.approx(expected)

    def test_chroma_plane_selector(self):
        originals = [grey_frame(QCIF)]
        recon = [grey_frame(QCIF)]
        assert sequence_psnr(originals, recon, plane="cb") == math.inf

    def test_invalid_plane(self):
        with pytest.raises(ValueError):
            sequence_psnr([], [], plane="alpha")

    def test_empty_pairs(self):
        with pytest.raises(ValueError):
            sequence_psnr([], [])
