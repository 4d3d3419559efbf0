"""The whole-picture body packer (repro.codec.entropy) against the
per-symbol oracle writer (repro.reference.write_picture_body).

Both must reproduce every pinned stream's picture bodies bit for bit
from the parsed symbols, agree with each other on arbitrary symbol
grids at any starting bit offset, and report the same ``(skipped,
mv_bits, coefficient_bits)`` ledger — the one the encoder's frame
records carry.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import reference
from repro.codec.bitstream import BitReader, BitWriter
from repro.codec.decoder import (
    FrameIndex,
    ParsedPicture,
    PictureHeader,
    detect_version,
    parse_picture_body,
    read_picture_header,
)
from repro.codec.encoder import PICTURE_HEADER_BITS, Encoder, encode_sequence
from repro.codec.entropy import (
    BodyBits,
    pack_fields,
    write_inter_body,
    write_intra_body,
    write_intra_pred_body,
)
from repro.video.synthesis.sequences import make_sequence

from .test_gop import GOLDEN_GOP_STREAMS, GOLDEN_SEED_STREAMS
from .test_reconstruction import SATURATED_STREAMS, moving_sequence, saturated_sequence


def pack_picture_body(writer: BitWriter, parsed: ParsedPicture) -> BodyBits:
    """The encoder's packer for whichever body syntax ``parsed`` has."""
    if parsed.header.frame_type == "P":
        return write_inter_body(writer, parsed.levels, parsed.hx, parsed.hy, parsed.ref_idx)
    if parsed.header.extended:
        return write_intra_pred_body(writer, parsed.levels, parsed.modes)
    return write_intra_body(writer, parsed.levels, parsed.dc_levels)


def written_bits(writer: BitWriter) -> tuple[int, int]:
    """Everything ``writer`` holds as ``(value, nbits)``."""
    nbits = writer.bit_count
    return int.from_bytes(writer.getvalue(), "big") >> (-nbits % 8), nbits


def picture_bodies(bitstream: bytes):
    """``(parsed, (value, nbits))`` of every picture body in a v1 or v2
    stream: the symbols and the exact bits they were coded as."""
    if detect_version(bitstream) == 2:
        index = FrameIndex.scan(bitstream)
        payloads = [index.payload(bitstream, i) for i in range(len(index))]
    else:
        payloads = [bitstream]
    for data in payloads:
        reader = BitReader(data)
        everything = int.from_bytes(data, "big")
        while reader.bits_remaining >= PICTURE_HEADER_BITS:
            header = read_picture_header(reader)
            start = reader.bits_consumed
            parsed = parse_picture_body(reader, header)
            end = reader.bits_consumed
            body = (everything >> (8 * len(data) - end)) & ((1 << (end - start)) - 1)
            yield parsed, (body, end - start)
            if detect_version(bitstream) == 2:
                break


def golden_encode(case):
    sequence, frames, qp, estimator, version, *gop = case
    i_period, n_ref_frames = gop or (None, 1)
    return encode_sequence(
        make_sequence(sequence, frames=frames, seed=0),
        qp=qp,
        estimator=estimator,
        bitstream_version=version,
        i_period=i_period,
        n_ref_frames=n_ref_frames,
    )


GOLDEN_CASES = (
    [pytest.param(lambda c=c: golden_encode(c), id=f"seed-{'-'.join(map(str, c))}")
     for c in sorted(GOLDEN_SEED_STREAMS)]
    + [pytest.param(lambda c=c: golden_encode(c), id=f"gop-{'-'.join(map(str, c))}")
       for c in GOLDEN_GOP_STREAMS]
    + [pytest.param(lambda qp=qp, e=e: encode_sequence(saturated_sequence(), qp=qp, estimator=e),
                    id=f"saturated-{qp}-{e}") for qp, e in sorted(SATURATED_STREAMS)]
    + [pytest.param(lambda: Encoder(estimator="fsbm", qp=12, estimator_kwargs={"p": 7})
                    .encode(moving_sequence(3, seed=220)), id="moving")]
)


class TestGoldenBodies:
    @pytest.mark.parametrize("encode", GOLDEN_CASES)
    def test_packer_and_oracle_rewrite_every_body(self, encode):
        """Parsed symbols → packer and → oracle writer both give back
        the stream's body bits, with the encoder's ledger."""
        result = encode()
        bodies = list(picture_bodies(result.bitstream))
        assert len(bodies) == len(result.frames)
        for (parsed, bits), record in zip(bodies, result.frames):
            packed, oracle = BitWriter(), BitWriter()
            packed_ledger = pack_picture_body(packed, parsed)
            oracle_ledger = reference.write_picture_body(oracle, parsed)
            assert written_bits(packed) == bits
            assert written_bits(oracle) == bits
            assert packed_ledger == oracle_ledger == (
                record.skipped_mbs, record.mv_bits, record.coefficient_bits
            )


# -- arbitrary symbol grids ------------------------------------------------


@st.composite
def pictures(draw):
    """A parsed picture of any body syntax: sparse level grids reaching
    escapes (|level| 9..127, long runs), all-skip and no-skip P-frames,
    reference indices 0..7 and vectors at the p = 31 border."""
    rows = draw(st.integers(min_value=1, max_value=3))
    cols = draw(st.integers(min_value=1, max_value=4))
    syntax = draw(st.sampled_from(["intra", "intra_pred", "inter", "inter_ext"]))
    levels = draw(
        arrays(
            np.int32,
            (rows, cols, 6, 8, 8),
            elements=st.sampled_from([-127, 127, -9, 9, 1, -1])
            | st.integers(min_value=-127, max_value=127),
            fill=st.just(0),
        )
    )
    levels[draw(arrays(np.bool_, (rows, cols, 6)))] = 0
    vectors = st.sampled_from([-63, -62, 62, 63, 0]) | st.integers(min_value=-63, max_value=63)
    if syntax == "intra":
        levels[..., 0, 0] = 0
        header = PictureHeader("I", 16, 31, rows, cols)
        dc = draw(arrays(np.int64, rows * cols * 6, elements=st.integers(1, 254)))
        return ParsedPicture(header, levels.reshape(-1, 8, 8), dc_levels=dc)
    if syntax == "intra_pred":
        header = PictureHeader("I", 16, 31, rows, cols, extended=True)
        modes = draw(arrays(np.int64, (rows, cols), elements=st.integers(0, 2)))
        return ParsedPicture(header, levels, modes=modes)
    hx = draw(arrays(np.int64, (rows, cols), elements=vectors))
    hy = draw(arrays(np.int64, (rows, cols), elements=vectors))
    num_refs = draw(st.integers(1, 8)) if syntax == "inter_ext" else 1
    ref_idx = draw(arrays(np.int64, (rows, cols), elements=st.integers(0, num_refs - 1)))
    skips = draw(st.sampled_from(["some", "all", "none"]))
    if skips == "all":
        levels[:] = 0
        hx[:] = hy[:] = ref_idx[:] = 0
    elif skips == "none":
        hx[(hx == 0) & (hy == 0)] = 1
    header = PictureHeader("P", 16, 31, rows, cols, syntax == "inter_ext", num_refs)
    return ParsedPicture(
        header, levels, hx=hx, hy=hy, ref_idx=ref_idx if header.extended else None
    )


@given(pictures(), st.integers(min_value=0, max_value=7))
@settings(max_examples=120, deadline=None)
def test_packer_matches_oracle_writer(parsed, offset):
    """Same bits, from any starting bit offset (version-1 bodies are
    unaligned), and the same ledger."""
    packed, oracle = BitWriter(), BitWriter()
    for writer in (packed, oracle):
        writer.write_bits(0b1011011 & ((1 << offset) - 1), offset)
    packed_ledger = pack_picture_body(packed, parsed)
    oracle_ledger = reference.write_picture_body(oracle, parsed)
    assert written_bits(packed) == written_bits(oracle)
    assert packed_ledger == oracle_ledger
    if parsed.header.frame_type == "P":
        coded = (parsed.levels != 0).any(axis=(2, 3, 4))
        ref = 0 if parsed.ref_idx is None else parsed.ref_idx
        skipped = ~coded & (parsed.hx == 0) & (parsed.hy == 0) & (ref == 0)
        assert packed_ledger.skipped == int(skipped.sum())


class TestPackFields:
    def test_fields_straddling_words(self):
        """Fields of every width 1..64 at every offset pack MSB first."""
        rng = np.random.default_rng(5)
        lengths = rng.integers(1, 65, 400)
        values = np.array(
            [int(rng.integers(0, 1 << 62)) << 2 | 3 for _ in lengths], dtype=object
        ) % (1 << lengths.astype(object))
        expected = 0
        for v, n in zip(values, lengths):
            expected = expected << int(n) | int(v)
        packed = pack_fields(values.astype(np.uint64), lengths)
        assert packed == (expected, int(lengths.sum()))

    def test_zero_length_fields_write_nothing(self):
        values = np.array([5, 7, 1], dtype=np.int64)
        assert pack_fields(values, np.array([3, 0, 1])) == (0b1011, 4)
        assert pack_fields(values, np.zeros(3, dtype=np.int64)) == (0, 0)
