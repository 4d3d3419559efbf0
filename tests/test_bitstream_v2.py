"""Golden tests for the version-2 bitstream format and the parse layer.

Pins the ISSUE's equivalence contract: version-1 streams keep the seed
layout (no alignment, no framing bytes), version 2 adds byte-aligned
start codes + length fields around bit-identical picture payloads, the
:class:`FrameIndex` scanner splits a v2 stream without parsing, and the
parallel symbol parse (``decode_bitstream(..., jobs=N)``) is
bit-identical to the serial decode in every mode.
"""

import numpy as np
import pytest

from repro import reference
from repro.codec.bitstream import BitReader
from repro.codec.decoder import (
    FrameIndex,
    ParsedPicture,
    decode_bitstream,
    detect_version,
    parse_bitstream_symbols,
    parse_picture,
    reconstruct_picture,
)
from repro.codec.encoder import (
    FRAME_START_CODE,
    START_CODE,
    Encoder,
    encode_sequence,
)
from repro.parallel import ParseFrameJob, run_jobs
from repro.video.synthesis.sequences import make_sequence


@pytest.fixture(scope="module")
def clip():
    return make_sequence("miss_america", frames=4, seed=0)


@pytest.fixture(scope="module")
def v1(clip):
    return encode_sequence(clip, qp=20, estimator="tss", keep_reconstruction=True)


@pytest.fixture(scope="module")
def v2(clip):
    return encode_sequence(
        clip, qp=20, estimator="tss", keep_reconstruction=True, bitstream_version=2
    )


class TestFormat:
    def test_version_detection(self, v1, v2):
        assert detect_version(v1.bitstream) == 1
        assert detect_version(v2.bitstream) == 2
        assert v1.bitstream_version == 1
        assert v2.bitstream_version == 2

    def test_v1_opens_with_picture_start_code(self, v1):
        assert int.from_bytes(v1.bitstream[:2], "big") == START_CODE

    def test_v2_opens_with_frame_start_code(self, v2):
        assert int.from_bytes(v2.bitstream[:4], "big") == FRAME_START_CODE

    def test_invalid_version_rejected(self):
        with pytest.raises(ValueError, match="bitstream_version"):
            Encoder(bitstream_version=3)

    def test_v2_frames_are_byte_aligned(self, v2):
        """Every v2 frame record charges framing + padding, so the
        per-frame bits sum to exactly the emitted bytes."""
        assert sum(f.bits for f in v2.frames) == 8 * len(v2.bitstream)

    def test_same_reconstruction_both_versions(self, v1, v2):
        assert all(a == b for a, b in zip(v1.reconstruction, v2.reconstruction))

    def test_v2_payloads_hold_v1_picture_bits(self, v1, v2):
        """The symbols inside each v2 payload are the same bits v1
        emits — v2 only adds framing and padding.  The first frame's
        payload must therefore be a prefix-match of the v1 stream."""
        index = FrameIndex.scan(v2.bitstream)
        first = index.payload(v2.bitstream, 0)
        assert v1.bitstream[: len(first) - 1] == first[: len(first) - 1]


class TestFrameIndex:
    def test_scan_matches_frames(self, v2):
        index = FrameIndex.scan(v2.bitstream)
        assert len(index) == len(v2.reconstruction)
        # Ranges are in order, non-overlapping, and the last ends the
        # stream.
        previous_end = 0
        for start, end in index.ranges:
            assert start == previous_end + 8  # start code + length field
            assert end > start
            previous_end = end
        assert previous_end == len(v2.bitstream)

    def test_each_payload_parses_standalone(self, v2):
        index = FrameIndex.scan(v2.bitstream)
        for i in range(len(index)):
            parsed = parse_picture(BitReader(index.payload(v2.bitstream, i)))
            expected = "I" if i == 0 else "P"
            assert parsed.header.frame_type == expected

    def test_rejects_v1_stream(self, v1):
        with pytest.raises(ValueError, match="version-2"):
            FrameIndex.scan(v1.bitstream)

    def test_short_trailing_junk_ignored_like_serial_decoder(self, v2):
        """A tail too short to hold a minimal frame is ignored by the
        scanner exactly as Decoder.has_more ignores it — the indexed
        (jobs>1) and sequential decoders accept the same streams."""
        padded = v2.bitstream + b"\x00" * 13
        index = FrameIndex.scan(padded)
        assert len(index) == len(v2.reconstruction)
        serial = decode_bitstream(padded, jobs=1)
        indexed = decode_bitstream(padded, jobs=2)
        assert len(serial) == len(indexed) == len(v2.reconstruction)
        assert all(a == b for a, b in zip(serial, indexed))

    def test_long_trailing_junk_rejected_like_serial_decoder(self, v2):
        """A frame-sized junk tail fails both decoders the same way."""
        junk = v2.bitstream + b"\x00" * 64
        with pytest.raises(ValueError, match="start code"):
            FrameIndex.scan(junk)
        with pytest.raises(ValueError, match="start code"):
            decode_bitstream(junk, jobs=1)

    def test_rejects_corrupt_length(self, v2):
        corrupt = bytearray(v2.bitstream)
        corrupt[4:8] = (2 ** 32 - 1).to_bytes(4, "big")
        with pytest.raises(ValueError, match="overruns"):
            FrameIndex.scan(bytes(corrupt))

    @pytest.mark.parametrize("delta", [-1, +1])
    def test_corrupt_length_fails_in_every_mode(self, v2, delta):
        """A length field off by one byte must be rejected by the
        sequential decoder, the sequential parse and the indexed path
        alike — a corrupt stream can never decode in one mode and
        raise in another."""
        corrupt = bytearray(v2.bitstream)
        length = int.from_bytes(corrupt[4:8], "big") + delta
        corrupt[4:8] = length.to_bytes(4, "big")
        corrupt = bytes(corrupt)
        with pytest.raises(ValueError):
            decode_bitstream(corrupt, jobs=1)
        with pytest.raises(ValueError):
            parse_bitstream_symbols(corrupt)
        with pytest.raises(ValueError):
            FrameIndex.scan(corrupt)

    def test_truncated_last_frame_is_not_dropped(self, v2):
        """Cut 5 bytes into frame 2's payload, the 13-byte tail (start
        code, length field, 5 payload bytes) is shorter than a minimal
        frame but holds whole framing: every mode raises the overrun
        instead of decoding 2 of 4 frames."""
        start = FrameIndex.scan(v2.bitstream).ranges[2][0]
        cut = v2.bitstream[: start + 5]
        with pytest.raises(ValueError, match=f"frame at byte {start - 8} overruns"):
            FrameIndex.scan(cut)
        with pytest.raises(ValueError, match="overruns"):
            decode_bitstream(cut)
        with pytest.raises(ValueError, match="overruns"):
            parse_bitstream_symbols(cut)
        assert len(decode_bitstream(cut, frames=2)) == 2  # only the first 2 are judged

    def test_rejects_bad_start_code(self, v2):
        corrupt = bytearray(v2.bitstream)
        corrupt[3] ^= 0xFF
        with pytest.raises(ValueError, match="start code"):
            FrameIndex.scan(bytes(corrupt))


class TestDecodeEquivalence:
    @pytest.mark.parametrize("batched", [True, False])
    def test_both_versions_both_paths(self, v1, v2, batched):
        """Batched decoder and per-block oracle, on both versions."""
        decode = decode_bitstream if batched else reference.decode_bitstream
        for encode in (v1, v2):
            decoded = decode(encode.bitstream)
            assert len(decoded) == len(encode.reconstruction)
            assert all(d == r for d, r in zip(decoded, encode.reconstruction))

    def test_lut_parse_equals_seed_parse(self, v1, v2):
        for encode in (v1, v2):
            fast = parse_bitstream_symbols(encode.bitstream)
            seed = reference.parse_bitstream_symbols(encode.bitstream)
            assert len(fast) == len(seed) == len(encode.reconstruction)
            assert all(a == b for a, b in zip(fast, seed))

    def test_reconstruct_from_parsed_matches_decode(self, v2):
        parsed = parse_bitstream_symbols(v2.bitstream)
        reference = None
        for i, picture in enumerate(parsed):
            reference = reconstruct_picture(picture, reference, i)
            assert reference == v2.reconstruction[i]


class TestParallelParse:
    def test_parse_jobs_match_serial_parse(self, v2):
        """ParseFrameJob through the (in-process) pool reproduces the
        sequential parse picture-for-picture."""
        index = FrameIndex.scan(v2.bitstream)
        jobs = [
            ParseFrameJob(payload=index.payload(v2.bitstream, i))
            for i in range(len(index))
        ]
        parsed = run_jobs(jobs)
        serial = parse_bitstream_symbols(v2.bitstream)
        assert len(parsed) == len(serial)
        assert all(a == b for a, b in zip(parsed, serial))

    def test_jobs_path_bit_identical(self, v2):
        """The spawn test here (kept tiny, like test_parallel.py): two
        workers parse the indexed frames and the result must be
        bit-identical to the serial decoder and the encoder's closed
        loop."""
        serial = decode_bitstream(v2.bitstream, jobs=1)
        assert len(FrameIndex.scan(v2.bitstream)) == len(serial)
        assert serial == v2.reconstruction
        indexed = decode_bitstream(v2.bitstream, jobs=2)
        assert all(a == b for a, b in zip(indexed, serial))
        assert len(indexed) == len(serial)

    def test_jobs_respects_frame_limit(self, v2):
        assert len(decode_bitstream(v2.bitstream, frames=2, jobs=2)) == 2

    def test_jobs_ignored_for_v1(self, v1):
        """Version-1 streams are not splittable: they fall back to the
        serial decoder."""
        assert all(
            a == b
            for a, b in zip(
                decode_bitstream(v1.bitstream, jobs=4), decode_bitstream(v1.bitstream)
            )
        )

    def test_parse_frame_job_validates_payload_length(self, v2):
        """An inflated length field hands the job extra trailing bytes;
        the job must reject the payload just like check_frame_length
        does in the sequential decoder — a corrupt length field fails
        in every mode."""
        index = FrameIndex.scan(v2.bitstream)
        payload = index.payload(v2.bitstream, 0)
        with pytest.raises(ValueError, match="length field"):
            ParseFrameJob(payload=payload + b"\x00\x00").run()

    def test_inflated_last_length_fails_serial_and_parse(self, v2):
        """Grow the *last* frame's length field and append the promised
        bytes: FrameIndex.scan accepts the shape, so the length check
        is the only guard — serial decode, serial parse and the job
        path must all reject it."""
        last_start, _ = FrameIndex.scan(v2.bitstream).ranges[-1]
        corrupt = bytearray(v2.bitstream + b"\x00\x00")
        field = last_start - 4
        length = int.from_bytes(corrupt[field : field + 4], "big") + 2
        corrupt[field : field + 4] = length.to_bytes(4, "big")
        corrupt = bytes(corrupt)
        index = FrameIndex.scan(corrupt)  # shape-valid: ends exactly at EOS
        assert len(index) == len(v2.reconstruction)
        with pytest.raises(ValueError, match="length field"):
            decode_bitstream(corrupt, jobs=1)
        with pytest.raises(ValueError, match="length field"):
            parse_bitstream_symbols(corrupt)
        with pytest.raises(ValueError, match="length field"):
            ParseFrameJob(payload=index.payload(corrupt, len(index) - 1)).run()

    def test_parse_frame_job_rejects_cut_payload_as_value_error(self, v2):
        """A payload shorter than its picture is a corrupt stream, not
        reader exhaustion: the job raises the ValueError every v2 mode
        shares."""
        payload = FrameIndex.scan(v2.bitstream).payload(v2.bitstream, 1)
        with pytest.raises(ValueError, match="runs past its declared"):
            ParseFrameJob(payload=payload[:-20]).run()

    def test_parse_frame_job_is_hashable_spec(self, v2):
        index = FrameIndex.scan(v2.bitstream)
        job = ParseFrameJob(payload=index.payload(v2.bitstream, 0))
        assert hash(job) == hash(ParseFrameJob(payload=index.payload(v2.bitstream, 0)))
        assert "parse" in job.describe()
        assert isinstance(job.run(), ParsedPicture)


class TestParsedPicture:
    def test_equality_compares_arrays(self, v2):
        a, b = parse_bitstream_symbols(v2.bitstream)[:2]
        assert a == a
        assert a != b
        changed = ParsedPicture(
            header=a.header,
            levels=a.levels.copy(),
            dc_levels=None if a.dc_levels is None else a.dc_levels.copy(),
            hx=a.hx,
            hy=a.hy,
        )
        assert changed == a
        changed.levels[0] += 1
        assert changed != a

    def test_inter_pictures_carry_motion(self, v2):
        pictures = parse_bitstream_symbols(v2.bitstream)
        assert pictures[0].dc_levels is not None and pictures[0].hx is None
        for picture in pictures[1:]:
            assert picture.dc_levels is None
            assert picture.hx is not None and picture.hx.dtype == np.int64
            assert picture.hx.shape == (
                picture.header.mb_rows,
                picture.header.mb_cols,
            )
