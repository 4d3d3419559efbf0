"""Property-based tests (hypothesis) for the motion-estimation layer."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.me.metrics import intra_sad, sad, sad_deviation, sad_map
from repro.me.search_window import clamped_window, half_pel_window
from repro.me.subpel import half_pel_block
from repro.me.types import MotionVector

planes = st.builds(
    lambda seed: np.random.default_rng(seed).integers(0, 256, (48, 64), dtype=np.uint8),
    st.integers(min_value=0, max_value=100_000),
)

blocks16 = st.builds(
    lambda seed: np.random.default_rng(seed).integers(0, 256, (16, 16), dtype=np.uint8),
    st.integers(min_value=0, max_value=100_000),
)


# -- metric axioms --------------------------------------------------------


@given(blocks16, blocks16)
def test_sad_is_a_metric(a, b):
    assert sad(a, b) >= 0
    assert sad(a, b) == sad(b, a)
    assert sad(a, a) == 0
    if sad(a, b) == 0:
        assert np.array_equal(a, b)


@given(blocks16, blocks16, blocks16)
@settings(max_examples=40)
def test_sad_triangle_inequality(a, b, c):
    assert sad(a, c) <= sad(a, b) + sad(b, c)


@given(blocks16, st.integers(min_value=-50, max_value=50))
def test_intra_sad_shift_invariant(block, offset):
    shifted = np.clip(block.astype(np.int64) + offset, 0, 255)
    if shifted.min() > 0 and shifted.max() < 255:  # no clipping occurred
        assert intra_sad(shifted) == intra_sad(block.astype(np.int64) + offset)


@given(blocks16)
def test_intra_sad_zero_iff_constant(block):
    value = intra_sad(block)
    assert value >= 0.0
    if np.all(block == block.flat[0]):
        assert value == 0.0


@given(
    st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=200)
)
def test_sad_deviation_invariants(sads):
    arr = np.array(sads, dtype=np.int64)
    dev = sad_deviation(arr)
    assert dev >= 0
    assert dev == (arr - arr.min()).sum()
    # Adding a constant to every candidate leaves the deviation unchanged.
    assert sad_deviation(arr + 17) == dev


@given(planes, st.integers(min_value=0, max_value=32), st.integers(min_value=0, max_value=48))
@settings(max_examples=30)
def test_sad_map_consistent_with_sad(plane, by, bx):
    block = plane[by : by + 16, bx : bx + 16]
    window = plane[max(0, by - 4) : by + 20, max(0, bx - 4) : bx + 20]
    if window.shape[0] < 16 or window.shape[1] < 16:
        return
    surface = sad_map(block, window)
    assert surface.min() >= 0
    i, j = np.unravel_index(np.argmin(surface), surface.shape)
    assert surface[i, j] == sad(block, window[i : i + 16, j : j + 16])


# -- search window laws -----------------------------------------------------


@given(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=20),
)
def test_clamped_window_contains_zero_and_respects_p(mb_row, mb_col, p):
    window = clamped_window(16 * mb_row, 16 * mb_col, 16, 16, 48, 64, p)
    assert window.contains(0, 0)
    assert -p <= window.dx_min <= 0 <= window.dx_max <= p
    assert -p <= window.dy_min <= 0 <= window.dy_max <= p
    # Every candidate keeps the block inside the plane.
    assert 16 * mb_col + window.dx_min >= 0
    assert 16 * mb_col + window.dx_max + 16 <= 64
    assert 16 * mb_row + window.dy_min >= 0
    assert 16 * mb_row + window.dy_max + 16 <= 48


@given(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=15),
)
def test_half_pel_window_supports_interpolation(mb_row, mb_col, p):
    """Every half-pel candidate in the doubled window must have full
    interpolation support inside the plane — i.e. half_pel_block never
    raises for in-window candidates."""
    plane = np.zeros((48, 64), dtype=np.uint8)
    window = clamped_window(16 * mb_row, 16 * mb_col, 16, 16, 48, 64, p)
    hwin = half_pel_window(window)
    for hx in (hwin.dx_min, hwin.dx_max, 0):
        for hy in (hwin.dy_min, hwin.dy_max, 0):
            half_pel_block(plane, 2 * 16 * mb_row + hy, 2 * 16 * mb_col + hx, 16, 16)


# -- interpolation bounds -----------------------------------------------------


@given(
    planes,
    st.integers(min_value=0, max_value=63),
    st.integers(min_value=0, max_value=95),
)
@settings(max_examples=50)
def test_half_pel_block_within_pixel_bounds(plane, hy, hx):
    """Bilinear samples never leave the convex hull of their support."""
    if (hy >> 1) + 17 > 48 or (hx >> 1) + 17 > 64:
        return
    out = half_pel_block(plane, hy, hx, 16, 16)
    region = plane[hy >> 1 : (hy >> 1) + 17, hx >> 1 : (hx >> 1) + 17]
    assert out.min() >= region.min()
    assert out.max() <= region.max()


# -- motion vector algebra -----------------------------------------------------

mv_strategy = st.builds(
    MotionVector,
    st.integers(min_value=-62, max_value=62),
    st.integers(min_value=-62, max_value=62),
)


@given(mv_strategy, mv_strategy)
def test_mv_group_laws(a, b):
    zero = MotionVector.zero()
    assert a + zero == a
    assert a - a == zero
    assert a + b == b + a
    assert -(-a) == a
    assert (a + b) - b == a


@given(mv_strategy)
def test_mv_pixel_views_consistent(mv):
    assert (2 * mv.x_pixels, 2 * mv.y_pixels) == (mv.hx, mv.hy)
    assert mv.is_integer_pel == (mv.x_pixels.is_integer() and mv.y_pixels.is_integer())

