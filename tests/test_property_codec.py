"""Property-based tests (hypothesis) for the codec layer invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.codec.bitstream import BitReader, BitWriter
from repro.codec.dct import forward_dct, inverse_dct
from repro.codec.entropy import pack_fields, tcoef_fields
from repro.codec.macroblock import write_events
from repro.codec.mv_coding import write_mvd
from repro.codec.quantizer import dequantize, quantize_inter
from repro.codec.vlc import se_golomb_code, ue_golomb_code
from repro.codec.zigzag import (
    CoefficientEvent,
    block_to_events,
    events_to_block,
    scan,
    unscan,
)
from repro.me.types import MotionVector
from repro.reference import read_events

from .conftest import read_se_golomb, read_ue_golomb

# -- bitstream ----------------------------------------------------------

bit_chunks = st.lists(
    st.tuples(st.integers(min_value=1, max_value=24), st.integers(min_value=0)),
    min_size=1,
    max_size=50,
).map(lambda chunks: [(n, v % (1 << n)) for n, v in chunks])


@given(bit_chunks)
def test_bitstream_round_trip(chunks):
    writer = BitWriter()
    for n, v in chunks:
        writer.write_bits(v, n)
    reader = BitReader(writer.getvalue())
    for n, v in chunks:
        assert reader.read_bits(n) == v


# -- exp-Golomb ---------------------------------------------------------


@given(st.integers(min_value=0, max_value=100000))
def test_ue_golomb_round_trip(value):
    writer = BitWriter()
    writer.write_code(ue_golomb_code(value))
    assert read_ue_golomb(BitReader(writer.getvalue())) == value


@given(st.integers(min_value=-50000, max_value=50000))
def test_se_golomb_round_trip(value):
    writer = BitWriter()
    writer.write_code(se_golomb_code(value))
    assert read_se_golomb(BitReader(writer.getvalue())) == value


@given(st.integers(min_value=0, max_value=10000))
def test_ue_golomb_length_monotone_in_magnitude_class(value):
    _, l1 = ue_golomb_code(value)
    _, l2 = ue_golomb_code(2 * value + 1)
    assert l2 >= l1


# -- zig-zag ------------------------------------------------------------

blocks_int = st.builds(
    lambda seed: np.random.default_rng(seed).integers(-127, 128, (8, 8)),
    st.integers(min_value=0, max_value=10_000),
)


@given(blocks_int)
def test_scan_unscan_inverse(block):
    np.testing.assert_array_equal(unscan(scan(block)), block)


@given(blocks_int, st.integers(min_value=0, max_value=1))
def test_block_events_round_trip(block, skip_first):
    if skip_first:
        block = block.copy()
        block[0, 0] = 0
    events = block_to_events(block, skip_first=skip_first)
    if not events:
        assert not block.any()
        return
    np.testing.assert_array_equal(events_to_block(events, skip_first=skip_first), block)


@given(blocks_int)
def test_event_levels_nonzero_and_runs_valid(block):
    for event in block_to_events(block):
        assert event.level != 0
        assert 0 <= event.run <= 63


@st.composite
def level_grids(draw):
    """Sparse ``(rows, cols, 6, 8, 8)`` level grids with forced
    all-zero blocks and levels at the +-127 clip."""
    rows = draw(st.integers(min_value=1, max_value=3))
    cols = draw(st.integers(min_value=1, max_value=3))
    levels = draw(
        arrays(
            np.int32,
            (rows, cols, 6, 8, 8),
            elements=st.sampled_from([-127, 127]) | st.integers(min_value=-127, max_value=127),
            fill=st.just(0),
        )
    )
    levels[draw(arrays(np.bool_, (rows, cols, 6)))] = 0
    return levels


@given(level_grids(), st.integers(min_value=0, max_value=1))
@settings(max_examples=80, deadline=None)
def test_grid_events_match_per_block_rule(levels, skip_first):
    """The whole-frame TCOEF field builder equals the per-block rule,
    block by block: a block's fields are its events in order, and they
    pack to exactly the bits ``write_events(block_to_events(...))``
    writes (no fields for an uncoded block)."""
    block, values, lengths = tcoef_fields(levels, skip_first=skip_first)
    assert np.all(np.diff(block) >= 0)
    for b, block_levels in enumerate(levels.reshape(-1, 8, 8)):
        events = block_to_events(block_levels, skip_first=skip_first)
        mine = block == b
        assert int(mine.sum()) == len(events)
        if not events:
            continue
        writer = BitWriter()
        write_events(writer, events)
        nbits = writer.bit_count
        expected = int.from_bytes(writer.getvalue(), "big") >> (-nbits % 8)
        assert pack_fields(values[mine], lengths[mine]) == (expected, nbits)


# -- TCOEF serialization --------------------------------------------------

events_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=-127, max_value=127).filter(lambda v: v != 0),
    ),
    min_size=1,
    max_size=20,
).map(
    lambda pairs: [
        CoefficientEvent(last=(i == len(pairs) - 1), run=r, level=l)
        for i, (r, l) in enumerate(pairs)
    ]
)


@given(events_strategy)
@settings(max_examples=60)
def test_tcoef_serialization_round_trip(events):
    writer = BitWriter()
    bits = write_events(writer, events)
    assert bits == writer.bit_count
    assert read_events(BitReader(writer.getvalue())) == events


# -- quantizer -----------------------------------------------------------


@given(
    st.integers(min_value=1, max_value=31),
    st.builds(
        lambda seed: np.random.default_rng(seed).uniform(-1000, 1000, 64),
        st.integers(min_value=0, max_value=10_000),
    ),
)
def test_quantizer_fixed_point(qp, coefficients):
    """dequantize∘quantize is a projection: applying it twice equals
    applying it once (no drift in the decoder loop)."""
    once = dequantize(quantize_inter(coefficients, qp), qp)
    twice = dequantize(quantize_inter(once, qp), qp)
    np.testing.assert_array_equal(once, twice)


@given(
    st.integers(min_value=1, max_value=31),
    st.floats(min_value=-2000, max_value=2000, allow_nan=False),
)
def test_quantizer_sign_preserved(qp, coefficient):
    level = quantize_inter(np.array([coefficient]), qp)[0]
    assert level == 0 or np.sign(level) == np.sign(coefficient)


# -- DCT ------------------------------------------------------------------


@given(
    st.builds(
        lambda seed: np.random.default_rng(seed).uniform(-255, 255, (8, 8)),
        st.integers(min_value=0, max_value=10_000),
    )
)
def test_dct_energy_and_inverse(block):
    coefficients = forward_dct(block)
    np.testing.assert_allclose(inverse_dct(coefficients), block, atol=1e-8)
    assert (coefficients**2).sum() == np.float64(0.0) or abs(
        (coefficients**2).sum() / (block**2).sum() - 1.0
    ) < 1e-9


# -- MV coding -------------------------------------------------------------

mvs = st.builds(
    MotionVector,
    st.integers(min_value=-31, max_value=31),
    st.integers(min_value=-31, max_value=31),
)


@given(mvs, mvs)
def test_mvd_round_trip(mv, predictor):
    writer = BitWriter()
    written = write_mvd(writer, mv, predictor)
    d = mv - predictor
    assert written == se_golomb_code(d.hx)[1] + se_golomb_code(d.hy)[1]
    reader = BitReader(writer.getvalue())
    assert (read_se_golomb(reader), read_se_golomb(reader)) == (d.hx, d.hy)


@given(mvs)
def test_mvd_zero_difference_cheapest(mv):
    assert write_mvd(BitWriter(), mv, mv) == 2
    assert write_mvd(BitWriter(), mv, MotionVector(mv.hx + 2, mv.hy)) > 2
