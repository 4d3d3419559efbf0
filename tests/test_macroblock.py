"""Unit tests for repro.codec.macroblock."""

import numpy as np
import pytest

from repro.codec.bitstream import BitReader, BitWriter
from repro.codec.dct import forward_dct
from repro.codec.macroblock import (
    chroma_mv,
    code_inter_block,
    code_intra_block,
    join_luma_blocks,
    predict_chroma_block,
    read_block_levels,
    write_events,
)
from repro.codec.quantizer import dequantize, dequantize_intra_dc
from repro.codec.vlc_tables import ESCAPE, ESCAPE_PAYLOAD_BITS, TCOEF_TABLE, tcoef_symbol
from repro.codec.zigzag import CoefficientEvent
from repro.me.types import MotionVector
from repro.reference import read_events

from .conftest import split_luma_blocks, textured_plane


def decoded_coefficients(events, qp, dc_level=None):
    """What the decoder rebuilds from a block's events: written, read
    back by :func:`read_block_levels` (an intra block's AC from scan
    position 1) and dequantized, with an intra block's DC level."""
    flat = np.zeros(64, dtype=np.int64)
    if events:
        writer = BitWriter()
        write_events(writer, events)
        read_block_levels(BitReader(writer.getvalue()), flat, 0 if dc_level is None else 1)
    recon = dequantize(flat.reshape(8, 8), qp)
    if dc_level is not None:
        recon[0, 0] = float(dequantize_intra_dc(dc_level))
    return recon


class TestLumaBlockSplit:
    def test_order_tl_tr_bl_br(self):
        mb = np.arange(256).reshape(16, 16)
        blocks = split_luma_blocks(mb)
        np.testing.assert_array_equal(blocks[0], mb[:8, :8])
        np.testing.assert_array_equal(blocks[1], mb[:8, 8:])
        np.testing.assert_array_equal(blocks[2], mb[8:, :8])
        np.testing.assert_array_equal(blocks[3], mb[8:, 8:])

    def test_join_is_inverse(self):
        mb = np.random.default_rng(0).integers(0, 256, (16, 16))
        np.testing.assert_array_equal(join_luma_blocks(split_luma_blocks(mb)), mb)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            join_luma_blocks(np.zeros((6, 8, 8)))
        with pytest.raises(ValueError):
            join_luma_blocks(np.zeros((4, 16, 16)))


class TestChromaMv:
    def test_even_components_halved_exactly(self):
        assert chroma_mv(MotionVector(4, -6)) == MotionVector(2, -3)

    def test_odd_components_round_away_from_zero(self):
        assert chroma_mv(MotionVector(3, -3)) == MotionVector(2, -2)
        assert chroma_mv(MotionVector(1, -1)) == MotionVector(1, -1)

    def test_zero(self):
        assert chroma_mv(MotionVector.zero()) == MotionVector.zero()


class TestPredictChromaBlock:
    def test_zero_mv_is_collocated_block(self):
        plane = textured_plane(24, 32, seed=90)
        out = predict_chroma_block(plane, 8, 8, MotionVector.zero(), p=15)
        np.testing.assert_array_equal(out, plane[8:16, 8:16])

    def test_integer_chroma_displacement(self):
        plane = textured_plane(24, 32, seed=91)
        # Luma mv (+4, -8) half-pel → chroma (+2, -4) half-pel = (+1, -2) px.
        out = predict_chroma_block(plane, 8, 8, MotionVector(4, -8), p=15)
        np.testing.assert_array_equal(out, plane[6:14, 9:17])

    def test_border_clamping_never_raises(self):
        plane = textured_plane(24, 32, seed=92)
        for mv in (MotionVector(31, 31), MotionVector(-31, -31)):
            out = predict_chroma_block(plane, 16, 24, mv, p=15)
            assert out.shape == (8, 8)


class TestEventSerialization:
    def test_round_trip_table_events(self):
        events = [
            CoefficientEvent(False, 0, 1),
            CoefficientEvent(False, 2, -3),
            CoefficientEvent(True, 1, 2),
        ]
        writer = BitWriter()
        bits = write_events(writer, events)
        expected = sum(TCOEF_TABLE.encode(tcoef_symbol(e))[1] + 1 for e in events)
        assert bits == expected == writer.bit_count
        assert read_events(BitReader(writer.getvalue())) == events

    def test_round_trip_escape_events(self):
        events = [
            CoefficientEvent(False, 45, 1),      # run out of table range
            CoefficientEvent(True, 0, -100),     # level out of table range
        ]
        writer = BitWriter()
        bits = write_events(writer, events)
        assert all(tcoef_symbol(e) is ESCAPE for e in events)
        assert bits == 2 * (TCOEF_TABLE.encode(ESCAPE)[1] + ESCAPE_PAYLOAD_BITS)
        assert read_events(BitReader(writer.getvalue())) == events

    def test_empty_events_rejected(self):
        with pytest.raises(ValueError):
            write_events(BitWriter(), [])

    def test_negative_escape_level_two_complement(self):
        events = [CoefficientEvent(True, 30, -90)]
        writer = BitWriter()
        write_events(writer, events)
        assert read_events(BitReader(writer.getvalue())) == events


class TestInterBlockRoundTrip:
    def test_code_then_decode_reproduces_reconstruction(self):
        rng = np.random.default_rng(93)
        residual = rng.normal(0, 20, (8, 8))
        coefficients = forward_dct(residual)
        for qp in (4, 10, 21):
            events, recon = code_inter_block(coefficients, qp)
            back = decoded_coefficients(events, qp)
            np.testing.assert_allclose(back, recon)

    def test_zero_residual_gives_no_events(self):
        events, recon = code_inter_block(np.zeros((8, 8)), 10)
        assert events == []
        assert (recon == 0).all()


class TestIntraBlockRoundTrip:
    def test_code_then_decode_reproduces_reconstruction(self):
        rng = np.random.default_rng(94)
        block = rng.integers(0, 256, (8, 8)).astype(np.float64)
        coefficients = forward_dct(block)
        for qp in (5, 12, 28):
            dc_level, events, recon = code_intra_block(coefficients, qp)
            back = decoded_coefficients(events, qp, dc_level)
            np.testing.assert_allclose(back, recon)
            assert 1 <= dc_level <= 254

    def test_flat_block_is_dc_only(self):
        block = np.full((8, 8), 96.0)
        dc_level, events, recon = code_intra_block(forward_dct(block), 10)
        assert events == []
        assert dc_level == 96  # 8 * 96 / 8
