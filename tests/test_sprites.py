"""Unit tests for repro.video.synthesis.sprites."""

import numpy as np
import pytest

from repro.video.synthesis.sprites import (
    Sprite,
    bounce_path,
    disc_mask,
    ellipse_mask,
    linear_path,
    rect_mask,
    sway_path,
)


class TestMasks:
    def test_ellipse_centre_opaque_corners_transparent(self):
        m = ellipse_mask(21, 31)
        assert m[10, 15] == pytest.approx(1.0)
        assert m[0, 0] == 0.0
        assert m[-1, -1] == 0.0

    def test_ellipse_range(self):
        m = ellipse_mask(16, 16)
        assert m.min() >= 0.0 and m.max() <= 1.0

    def test_rect_interior_opaque(self):
        m = rect_mask(10, 12, softness=2.0)
        assert m[5, 6] == pytest.approx(1.0)
        assert m[0, 0] < 1.0

    def test_disc_is_square_ellipse(self):
        np.testing.assert_allclose(disc_mask(9), ellipse_mask(9, 9, softness=1.0))

    @pytest.mark.parametrize("fn", [ellipse_mask, rect_mask])
    def test_bad_softness(self, fn):
        with pytest.raises(ValueError):
            fn(8, 8, softness=0.0)


class TestSpriteValidation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            Sprite(np.zeros((4, 4)), np.zeros((4, 5)), linear_path((0, 0), (0, 0)))

    def test_mask_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Sprite(np.zeros((2, 2)), np.full((2, 2), 1.5), linear_path((0, 0), (0, 0)))


class TestRenderOnto:
    def test_opaque_blit_at_integer_position(self):
        world = np.zeros((10, 10))
        sprite = Sprite(np.full((3, 3), 5.0), np.ones((3, 3)), linear_path((2, 4), (0, 0)))
        sprite.render_onto(world, 0)
        assert world[3, 5] == pytest.approx(5.0)
        assert world[1, 4] == 0.0

    def test_moves_with_frame_index(self):
        sprite = Sprite(np.full((2, 2), 7.0), np.ones((2, 2)), linear_path((0, 0), (0, 3)))
        w0 = np.zeros((8, 12))
        w1 = np.zeros((8, 12))
        sprite.render_onto(w0, 0)
        sprite.render_onto(w1, 1)
        assert w0[0, 0] == pytest.approx(7.0)
        assert w1[0, 0] < 7.0
        assert w1[0, 3] == pytest.approx(7.0)

    def test_subpixel_position_spreads_energy(self):
        sprite = Sprite(np.full((2, 2), 8.0), np.ones((2, 2)), linear_path((0, 0.5), (0, 0)))
        world = np.zeros((4, 4))
        sprite.render_onto(world, 0)
        # Trailing edge (the spill-over column): both texture and alpha
        # interpolate toward the zero padding, so it gets 0.5 * 4.0.
        assert world[0, 2] == pytest.approx(2.0)
        # Leading edge clamps (edge replication); real sprites rely on
        # soft masks whose border is zero, so no visible artifact.
        assert world[0, 0] == pytest.approx(8.0)
        assert world[0, 1] == pytest.approx(8.0)

    def test_clipped_at_world_edge(self):
        sprite = Sprite(np.full((4, 4), 3.0), np.ones((4, 4)), linear_path((-2, -2), (0, 0)))
        world = np.zeros((6, 6))
        sprite.render_onto(world, 0)  # must not raise
        assert world[0, 0] == pytest.approx(3.0)
        assert world[3, 3] == 0.0

    def test_fully_outside_is_noop(self):
        sprite = Sprite(np.full((2, 2), 3.0), np.ones((2, 2)), linear_path((100, 100), (0, 0)))
        world = np.zeros((6, 6))
        sprite.render_onto(world, 0)
        assert world.max() == 0.0


class TestTrajectories:
    def test_linear(self):
        path = linear_path((1.0, 2.0), (0.5, -1.0))
        assert path(0) == (1.0, 2.0)
        assert path(4) == (3.0, -2.0)

    def test_sway_returns_to_centre(self):
        path = sway_path((5.0, 5.0), (2.0, 2.0), period=8.0)
        y0, _ = path(0)
        y8, _ = path(8)
        assert y0 == pytest.approx(y8)

    def test_sway_bounded_by_amplitude(self):
        path = sway_path((0.0, 0.0), (2.0, 3.0), period=7.0)
        for i in range(30):
            y, x = path(i)
            assert abs(y) <= 2.0 + 1e-9
            assert abs(x) <= 3.0 + 1e-9

    def test_sway_bad_period(self):
        with pytest.raises(ValueError):
            sway_path((0, 0), (1, 1), period=0.0)

    def test_bounce_stays_in_bounds(self):
        path = bounce_path((5.0, 5.0), (3.7, 2.9), (0.0, 10.0, 0.0, 20.0))
        for i in range(100):
            y, x = path(i)
            assert 0.0 <= y <= 10.0
            assert 0.0 <= x <= 20.0

    def test_bounce_reflects(self):
        path = bounce_path((0.0, 0.0), (1.0, 0.0), (0.0, 3.0, 0.0, 3.0))
        ys = [path(i)[0] for i in range(7)]
        assert ys == pytest.approx([0.0, 1.0, 2.0, 3.0, 2.0, 1.0, 0.0])

    def test_bounce_degenerate_bounds(self):
        with pytest.raises(ValueError):
            bounce_path((0, 0), (1, 1), (5.0, 5.0, 0.0, 1.0))
