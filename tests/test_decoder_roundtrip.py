"""Decoder round-trip tests — the codec's strongest invariant.

The decoder must reconstruct, bit-exactly, the frames the encoder's
internal loop produced.  Any asymmetry in quantizer rounding, VLC
tables, MV prediction or half-pel interpolation breaks these.
"""

import tracemalloc

import numpy as np
import pytest

from repro import reference
from repro.codec.decoder import Decoder, decode_bitstream, parse_bitstream_symbols
from repro.codec.encoder import encode_sequence
from repro.streaming import StreamDecoder
from repro.video.frame import Frame, FrameGeometry
from repro.video.sequence import Sequence
from repro.video.synthesis.sequences import make_sequence

from .conftest import shifted_plane, textured_plane


def moving_sequence(n=4, seed=110, dx=2, with_chroma=True):
    base_y = textured_plane(48, 64, seed=seed)
    base_cb = textured_plane(24, 32, seed=seed + 1, amplitude=25.0)
    base_cr = textured_plane(24, 32, seed=seed + 2, amplitude=25.0)
    frames = []
    for i in range(n):
        y = shifted_plane(base_y, 0, dx * i)
        cb = shifted_plane(base_cb, 0, dx * i // 2) if with_chroma else None
        cr = shifted_plane(base_cr, 0, dx * i // 2) if with_chroma else None
        frames.append(Frame(y, cb, cr, index=i))
    return Sequence(frames, fps=30, name="rt")


@pytest.mark.parametrize("estimator", ["pbm", "fsbm", "acbm", "ds"])
def test_round_trip_exact_per_estimator(estimator):
    seq = moving_sequence(3)
    result = encode_sequence(
        seq, qp=10, estimator=estimator,
        estimator_kwargs={"p": 7}, keep_reconstruction=True,
    )
    decoded = decode_bitstream(result.bitstream)
    assert len(decoded) == 3
    for dec, ref in zip(decoded, result.reconstruction):
        assert dec == ref


@pytest.mark.parametrize("qp", [1, 2, 9, 16, 31])
def test_round_trip_across_qp_ladder(qp):
    seq = moving_sequence(2)
    result = encode_sequence(seq, qp=qp, estimator="pbm", keep_reconstruction=True)
    decoded = decode_bitstream(result.bitstream)
    for dec, ref in zip(decoded, result.reconstruction):
        assert dec == ref


def test_round_trip_on_synthetic_preset():
    seq = make_sequence("carphone", frames=3)
    result = encode_sequence(seq, qp=14, estimator="acbm", keep_reconstruction=True)
    decoded = decode_bitstream(result.bitstream)
    for dec, ref in zip(decoded, result.reconstruction):
        assert dec == ref


def test_decode_frame_limit():
    seq = moving_sequence(4)
    result = encode_sequence(seq, qp=12, estimator="pbm")
    decoded = decode_bitstream(result.bitstream, frames=2)
    assert len(decoded) == 2


def test_decoder_rejects_corrupt_start_code():
    seq = moving_sequence(2)
    result = encode_sequence(seq, qp=12, estimator="pbm")
    corrupted = bytes([result.bitstream[0] ^ 0xFF]) + result.bitstream[1:]
    with pytest.raises(ValueError, match="start code"):
        Decoder(corrupted).decode_frame()


def test_decoder_requires_reference_for_p_frame():
    """A hand-built stream that opens with a P-frame header must be
    rejected: there is no reference to predict from."""
    from repro.codec.bitstream import BitWriter
    from repro.codec.encoder import START_CODE, START_CODE_BITS

    writer = BitWriter()
    writer.write_bits(START_CODE, START_CODE_BITS)
    writer.write_bit(1)       # P-frame
    writer.write_bits(12, 5)  # qp
    writer.write_bits(15, 5)  # p
    writer.write_bits(3, 8)   # mb_rows
    writer.write_bits(4, 8)   # mb_cols
    with pytest.raises(ValueError, match="reference"):
        Decoder(writer.getvalue()).decode_frame()


#: An I-picture header declaring 255x255 macroblocks, then two zero
#: bytes: 21 bits after the header, far fewer than one per macroblock.
OVERSIZED_V1 = bytes.fromhex("7e7e41ffffe00000")
OVERSIZED_V2 = bytes.fromhex("000001b6") + len(OVERSIZED_V1).to_bytes(4, "big") + OVERSIZED_V1


def _push_decode(bitstream):
    decoder = StreamDecoder()
    decoder.feed(bitstream)
    decoder.close()
    return list(decoder.frames())


#: Every decode entry point; the push decoder takes version 2 only.
ENTRY_POINTS = {
    "decode_bitstream": decode_bitstream,
    "Decoder": lambda bs: Decoder(bs).decode_frame(),
    "parse_bitstream_symbols": parse_bitstream_symbols,
    "oracle": reference.decode_bitstream,
    "oracle_parse": reference.parse_bitstream_symbols,
}


@pytest.mark.parametrize(
    "entry,bitstream",
    [
        pytest.param(name, bitstream, id=f"{name}-v{version}")
        for version, bitstream in ((1, OVERSIZED_V1), (2, OVERSIZED_V2))
        for name in ENTRY_POINTS
    ]
    + [pytest.param("StreamDecoder", OVERSIZED_V2, id="StreamDecoder-v2")],
)
def test_oversized_picture_rejected_before_allocating(entry, bitstream):
    """Every picture syntax codes at least one bit per macroblock, so a
    header declaring more macroblocks than bits follow is rejected,
    naming the bit offset, before any level array is sized by it."""
    decode = _push_decode if entry == "StreamDecoder" else ENTRY_POINTS[entry]
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"header ending at bit 43 declares 65025 macroblocks"):
            decode(bitstream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_half_pel_vectors_survive_round_trip():
    """Force half-pel motion (0.5 px/frame) and verify exactness."""
    from repro.me.subpel import half_pel_block

    base = textured_plane(48, 64, seed=111)
    second = np.empty_like(base)
    # Whole frame at half-pel offset (interior exact, border replicated).
    second[:, :] = base
    second[:48, : 64 - 1] = half_pel_block(base, 0, 1, 48, 63)
    seq = Sequence([Frame(base, index=0), Frame(second, index=1)], fps=30)
    result = encode_sequence(seq, qp=8, estimator="fsbm",
                             estimator_kwargs={"p": 3}, keep_reconstruction=True)
    decoded = decode_bitstream(result.bitstream)
    for dec, ref in zip(decoded, result.reconstruction):
        assert dec == ref
