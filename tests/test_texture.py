"""Unit tests for repro.video.synthesis.texture."""

import numpy as np
import pytest

from repro.me.metrics import block_activity_map
from repro.video.synthesis.texture import (
    flat_field,
    gradient_field,
    noise_texture,
    stripe_field,
)


class TestFields:
    def test_flat_is_constant(self):
        f = flat_field(16, 32, level=77)
        assert f.shape == (16, 32)
        assert (f == 77.0).all()

    def test_gradient_horizontal_span(self):
        g = gradient_field(16, 32, low=10, high=20, axis=1)
        assert g[:, 0] == pytest.approx(10.0)
        assert g[:, -1] == pytest.approx(20.0)
        assert (np.diff(g, axis=0) == 0).all()

    def test_gradient_vertical(self):
        g = gradient_field(16, 32, low=0, high=15, axis=0)
        assert (np.diff(g, axis=1) == 0).all()
        assert g[-1, 0] == pytest.approx(15.0)

    def test_gradient_bad_axis(self):
        with pytest.raises(ValueError):
            gradient_field(8, 8, axis=2)

    def test_stripes_periodic(self):
        s = stripe_field(8, 48, period=12, axis=1)
        np.testing.assert_allclose(s[:, 0], s[:, 12])
        np.testing.assert_allclose(s[:, 5], s[:, 17])

    def test_stripes_bad_period(self):
        with pytest.raises(ValueError):
            stripe_field(8, 8, period=1)


class TestNoiseTexture:
    def test_clipped_to_8bit_range(self):
        t = noise_texture(32, 32, seed=0, amplitude=400.0)
        assert t.min() >= 0.0
        assert t.max() <= 255.0

    def test_amplitude_scales_activity(self):
        """Per-block Intra_SAD grows with texture amplitude — the lever
        the sequence presets are calibrated with."""
        lo = noise_texture(64, 64, seed=1, amplitude=20.0)
        hi = noise_texture(64, 64, seed=1, amplitude=80.0)
        assert block_activity_map(hi).mean() > 2 * block_activity_map(lo).mean()

    def test_persistence_adds_detail(self):
        soft = noise_texture(64, 64, seed=2, octaves=5, persistence=0.3)
        hard = noise_texture(64, 64, seed=2, octaves=5, persistence=0.9)
        assert np.abs(np.diff(hard, axis=1)).mean() > np.abs(np.diff(soft, axis=1)).mean()

    def test_deterministic(self):
        np.testing.assert_array_equal(
            noise_texture(16, 16, seed=9), noise_texture(16, 16, seed=9)
        )
