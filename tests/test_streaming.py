"""Golden tests for the streaming subsystem (:mod:`repro.streaming`).

The two contracts everything else hangs off:

* **decode**: :class:`StreamDecoder` fed *any* chunking of a version-2
  stream — 1-byte feeds, splits inside start codes and length fields,
  random cuts (hypothesis) — produces frames bit-identical to
  :func:`decode_bitstream` over the whole buffer, and truncated or
  corrupt tails raise the same errors the whole-buffer scan raises;
* **encode**: :class:`StreamEncoder` pulling frames from an iterator
  (including straight off an on-disk YUV file) emits bytes identical to
  the whole-sequence :class:`Encoder`, in both wire formats.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec.decoder import FrameIndex, decode_bitstream, parse_payload
from repro.codec.encoder import FRAME_START_CODE, encode_sequence
from repro.streaming import (
    DecodeSession,
    EncodeSession,
    ParseStage,
    ScanState,
    StreamDecoder,
    StreamEncoder,
    stream_decode,
)
from repro.streaming.pipeline import normalize_pipeline
from repro.video.frame import Frame, FrameGeometry
from repro.video.sequence import Sequence
from repro.video.synthesis.sequences import make_sequence
from repro.video.yuv_io import frame_size_bytes, iter_yuv_frames, read_yuv, write_yuv

from .conftest import shm_segments

SMALL = FrameGeometry(32, 32)


def random_sequence(n=4, seed=7, geometry=SMALL):
    rng = np.random.default_rng(seed)
    ch, cw = geometry.chroma_height, geometry.chroma_width
    frames = [
        Frame(
            rng.integers(0, 256, (geometry.height, geometry.width), dtype=np.uint8),
            rng.integers(0, 256, (ch, cw), dtype=np.uint8),
            rng.integers(0, 256, (ch, cw), dtype=np.uint8),
            index=i,
        )
        for i in range(n)
    ]
    return Sequence(frames, fps=30, name="stream-test")


@pytest.fixture(scope="module")
def clip():
    return random_sequence(4)


@pytest.fixture(scope="module")
def v2(clip):
    return encode_sequence(
        clip, qp=18, estimator="tss", keep_reconstruction=True, bitstream_version=2
    )


@pytest.fixture(scope="module")
def v1(clip):
    return encode_sequence(
        clip, qp=18, estimator="tss", keep_reconstruction=True, bitstream_version=1
    )


@pytest.fixture(scope="module")
def qcif_v2():
    """A 30-frame QCIF v2 stream: the shape the memory bound is stated for."""
    return encode_sequence(
        make_sequence("foreman", frames=30, seed=0),
        qp=16, estimator="tss", keep_reconstruction=True, bitstream_version=2,
    )


@pytest.fixture(scope="module")
def whole(v2):
    return decode_bitstream(v2.bitstream)


def assert_frames_equal(actual, expected):
    assert len(actual) == len(expected)
    assert all(a == b for a, b in zip(actual, expected))


# -- incremental scanner ---------------------------------------------------


class TestScanState:
    @pytest.mark.parametrize("chunk", [1, 7, 13, 64, 10**6])
    def test_ranges_match_whole_buffer_scan(self, v2, chunk):
        index = FrameIndex.scan(v2.bitstream)
        state = ScanState(keep_payloads=False)
        for start in range(0, len(v2.bitstream), chunk):
            state.feed(v2.bitstream[start : start + chunk])
        state.finish()
        assert state.ranges == list(index.ranges)
        assert state.frames_scanned == len(index)
        assert not state.payloads  # keep_payloads=False records ranges only

    def test_payloads_match_index_payloads(self, v2):
        index = FrameIndex.scan(v2.bitstream)
        state = ScanState()
        state.feed(v2.bitstream)
        state.finish()
        assert list(state.payloads) == [
            index.payload(v2.bitstream, i) for i in range(len(index))
        ]

    def test_accumulator_stays_bounded(self, v2):
        """The scanner holds at most one in-flight frame plus the tail
        of the current chunk — never the whole stream."""
        index = FrameIndex.scan(v2.bitstream)
        largest_frame = max(end - start for start, end in index.ranges) + 8
        chunk = 16
        state = ScanState(keep_payloads=False)
        for start in range(0, len(v2.bitstream), chunk):
            state.feed(v2.bitstream[start : start + chunk])
            assert state.buffered_bytes <= largest_frame + chunk
        state.finish()

    def test_feed_after_finish_rejected(self, v2):
        state = ScanState()
        state.feed(v2.bitstream)
        state.finish()
        with pytest.raises(ValueError, match="finish"):
            state.feed(b"\x00")

    def test_short_tail_ignored_like_whole_buffer(self, v2):
        """A trailing fragment too short to open a frame is ignored by
        the incremental and whole-buffer scanners alike."""
        padded = v2.bitstream + b"\x00" * 13
        state = ScanState(keep_payloads=False)
        state.feed(padded)
        state.finish()  # does not raise
        assert state.frames_scanned == len(FrameIndex.scan(padded))

    def test_trailing_garbage_error_names_offset(self, v2):
        """Frame-sized garbage after the last frame raises the same
        error, with the same byte offset, from both scanners."""
        junk = v2.bitstream + b"\x00" * 64
        with pytest.raises(ValueError, match=f"start code at byte {len(v2.bitstream)}") as whole_err:
            FrameIndex.scan(junk)
        state = ScanState()
        with pytest.raises(ValueError, match=f"start code at byte {len(v2.bitstream)}") as inc_err:
            state.feed(junk)
        assert str(whole_err.value) == str(inc_err.value)

    def test_overrun_error_names_offsets(self, v2):
        """A length field pointing past end of stream names the frame's
        byte offset, the declared end and the actual end — from the
        whole-buffer scan and from the incremental finish() alike."""
        last_start = FrameIndex.scan(v2.bitstream).ranges[-1][0] - 8
        truncated = v2.bitstream[:-1]
        with pytest.raises(ValueError, match=f"frame at byte {last_start} overruns") as whole_err:
            FrameIndex.scan(truncated)
        assert f"ends at byte {len(truncated)}" in str(whole_err.value)
        state = ScanState()
        state.feed(truncated)
        with pytest.raises(ValueError, match=f"frame at byte {last_start} overruns") as inc_err:
            state.finish()
        assert str(whole_err.value) == str(inc_err.value)

    def test_v1_stream_rejected_with_version_error(self, v1):
        state = ScanState()
        with pytest.raises(ValueError, match="version-2"):
            state.feed(v1.bitstream)

    def test_short_v1_fragment_rejected_at_finish(self):
        """A non-v2 stream too short to be judged during feed must not
        pass for a clean empty stream: finish() raises the version
        error, matching FrameIndex.scan's classification."""
        state = ScanState()
        state.feed(b"\x7e\x7e" + b"\x00" * 10)  # < MIN_FRAME_BYTES
        with pytest.raises(ValueError, match="version-2"):
            state.finish()
        # ... while a short *v2* fragment stays an ignorable tail.
        state = ScanState()
        state.feed(b"\x00\x00\x01\xb6\x00\x00")
        state.finish()
        assert state.frames_scanned == 0

    def test_counters_consistent_after_mid_chunk_error(self, v2):
        """Frames completed before garbage in the same chunk are kept,
        and bytes_fed/buffered_bytes account for the whole chunk even
        though feed() raised."""
        junk = v2.bitstream + b"\xff" * 64
        state = ScanState()
        with pytest.raises(ValueError, match="start code"):
            state.feed(junk)
        assert state.frames_scanned == len(FrameIndex.scan(v2.bitstream))
        assert state.bytes_fed == len(junk)
        assert state.buffered_bytes == 64  # the offending tail is retained


# -- push decoder ----------------------------------------------------------


class TestStreamDecoder:
    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 7, 8, 9, 13, 64, 10**6])
    def test_fixed_chunkings_bit_identical(self, v2, whole, chunk):
        """Every fixed chunk size — including 1-byte feeds and sizes
        that split every start code and length field — decodes
        bit-identically to the whole-buffer decode."""
        chunks = [v2.bitstream[i : i + chunk] for i in range(0, len(v2.bitstream), chunk)]
        assert_frames_equal(list(stream_decode(chunks)), whole)

    @pytest.mark.parametrize("cut", range(1, 16))
    def test_boundary_inside_framing_fields(self, v2, whole, cut):
        """One cut placed at every offset through the first frame's
        start code, length field and picture header."""
        chunks = [v2.bitstream[:cut], v2.bitstream[cut:]]
        assert_frames_equal(list(stream_decode(chunks)), whole)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_random_chunkings_bit_identical(self, v2, whole, data):
        stream = v2.bitstream
        cuts = sorted(
            data.draw(
                st.lists(st.integers(0, len(stream)), min_size=0, max_size=40),
                label="cuts",
            )
        )
        points = [0, *cuts, len(stream)]
        chunks = [stream[a:b] for a, b in zip(points, points[1:])]
        assert_frames_equal(list(stream_decode(chunks)), whole)

    def test_matches_encoder_closed_loop(self, v2):
        decoded = list(stream_decode([v2.bitstream]))
        assert_frames_equal(decoded, v2.reconstruction)

    def test_frames_emitted_as_soon_as_complete(self, v2):
        """Each frame is drainable the moment its payload's last byte
        arrives — not at end of stream."""
        index = FrameIndex.scan(v2.bitstream)
        decoder = StreamDecoder(max_buffered_frames=len(index))
        pos = 0
        for i, (_, end) in enumerate(index.ranges):
            decoder.feed(v2.bitstream[pos:end])
            pos = end
            assert decoder.frames_decoded == i + 1
        decoder.close()

    def test_backpressure_demand(self, v2, whole):
        decoder = StreamDecoder(max_buffered_frames=1)
        demand = decoder.feed(v2.bitstream)
        assert demand == 0  # full: drain before feeding more
        drained = []
        for frame in decoder.frames():
            drained.append(frame)
        assert decoder.demand == 1  # empty again
        decoder.close()
        assert_frames_equal(drained, whole)

    def test_pending_payloads_stay_compressed(self, v2):
        """Past the buffer bound, completed frames wait as payload
        bytes, not decoded pixels."""
        decoder = StreamDecoder(max_buffered_frames=1)
        decoder.feed(v2.bitstream)
        raw_frame = 32 * 32 + 2 * 16 * 16
        # one decoded frame + the remaining payloads' compressed bytes
        assert decoder.buffered_bytes < raw_frame + len(v2.bitstream)
        assert decoder.frames_decoded == 1

    def test_callback_mode(self, v2, whole):
        got = []
        decoder = StreamDecoder(on_frame=got.append)
        for i in range(0, len(v2.bitstream), 11):
            assert decoder.feed(v2.bitstream[i : i + 11]) > 0  # demand never drops
        decoder.close()
        assert_frames_equal(got, whole)
        assert list(decoder.frames()) == []  # callback consumed everything

    def test_feed_after_close_rejected(self, v2):
        decoder = StreamDecoder()
        decoder.feed(v2.bitstream)
        list(decoder.frames())
        decoder.close()
        with pytest.raises(ValueError, match="close"):
            decoder.feed(b"\x00")

    def test_truncated_tail_raises_on_close(self, v2):
        """Cutting the stream mid-payload decodes every complete frame,
        then close() raises the whole-buffer scanner's overrun error."""
        index = FrameIndex.scan(v2.bitstream)
        cut = index.ranges[-1][1] - 3  # 3 bytes short of the last frame
        decoder = StreamDecoder(max_buffered_frames=len(index))
        decoder.feed(v2.bitstream[:cut])
        got = list(decoder.frames())
        assert len(got) == len(index) - 1
        with pytest.raises(ValueError, match="overruns"):
            decoder.close()

    def test_corrupt_length_field_fails_like_whole_buffer(self, v2):
        """An inflated length field must fail the streamed decode just
        as it fails every whole-buffer mode (check_frame_length)."""
        corrupt = bytearray(v2.bitstream + b"\x00\x00")
        last_start = FrameIndex.scan(v2.bitstream).ranges[-1][0]
        field = last_start - 4
        length = int.from_bytes(corrupt[field : field + 4], "big") + 2
        corrupt[field : field + 4] = length.to_bytes(4, "big")
        corrupt = bytes(corrupt)
        with pytest.raises(ValueError, match="length field"):
            decode_bitstream(corrupt)
        decoder = StreamDecoder(max_buffered_frames=10)
        with pytest.raises(ValueError, match="length field"):
            decoder.feed(corrupt)
            decoder.close()

    def test_short_length_field_raises_value_error_like_whole_buffer(self, v2):
        """Frame 1's length field one byte short: the picture runs past
        its payload, which every mode reports as the same ValueError."""
        corrupt = bytearray(v2.bitstream)
        field = FrameIndex.scan(v2.bitstream).ranges[1][0] - 4
        length = int.from_bytes(corrupt[field : field + 4], "big") - 1
        corrupt[field : field + 4] = length.to_bytes(4, "big")
        corrupt = bytes(corrupt)
        with pytest.raises(ValueError, match="runs past its declared") as whole_err:
            decode_bitstream(corrupt)
        with pytest.raises(ValueError) as stream_err:
            list(stream_decode([corrupt]))
        assert str(stream_err.value) == str(whole_err.value)

    @pytest.mark.parametrize("pipeline", [False, "thread"])
    def test_truncated_last_frame_raises_like_whole_buffer(self, v2, pipeline):
        """A stream cut 5 bytes into frame 2's payload leaves a tail
        shorter than a minimal frame; it still raises the overrun, in
        the push decoder as in decode_bitstream."""
        start = FrameIndex.scan(v2.bitstream).ranges[2][0]
        cut = v2.bitstream[: start + 5]
        with pytest.raises(ValueError, match="overruns") as whole_err:
            decode_bitstream(cut)
        chunks = [cut[i : i + 7] for i in range(0, len(cut), 7)]
        with pytest.raises(ValueError) as stream_err:
            list(stream_decode(chunks, pipeline=pipeline))
        assert str(stream_err.value) == str(whole_err.value)

    @pytest.mark.parametrize("pipeline", [False, "thread"])
    def test_scan_error_waits_for_earlier_payloads(self, v2, pipeline):
        """Payload 1 corrupt and frame 2's start code bad, fed in one
        chunk: the scanner meets the start code first, but stream order
        puts payload 1's parse error ahead of it, as decode_bitstream
        reports."""
        corrupt = bytearray(v2.bitstream)
        ranges = FrameIndex.scan(v2.bitstream).ranges
        corrupt[ranges[1][0]] ^= 0xFF
        corrupt[ranges[2][0] - 5] = 0x49
        corrupt = bytes(corrupt)
        with pytest.raises(ValueError, match="bad start code 0x") as whole_err:
            decode_bitstream(corrupt)
        decoder = StreamDecoder(max_buffered_frames=1, pipeline=pipeline)
        with pytest.raises(ValueError) as stream_err:
            decoder.feed(corrupt)
            list(decoder.frames())
            decoder.close()
        assert str(stream_err.value) == str(whole_err.value)

    def test_v1_stream_rejected(self, v1):
        decoder = StreamDecoder()
        with pytest.raises(ValueError, match="version-2"):
            decoder.feed(v1.bitstream)

    def test_max_buffered_frames_validated(self):
        with pytest.raises(ValueError, match="max_buffered_frames"):
            StreamDecoder(max_buffered_frames=0)


# -- pipelined decode ------------------------------------------------------


@pytest.fixture(scope="module")
def payloads(v2):
    index = FrameIndex.scan(v2.bitstream)
    return [index.payload(v2.bitstream, i) for i in range(len(index))]


@pytest.fixture(scope="module")
def corrupt_stream(v2):
    """``v2`` with one payload byte flipped so the serial decode raises
    — found by scanning offsets, since a flip can land in dead padding
    and decode cleanly."""
    start, end = FrameIndex.scan(v2.bitstream).ranges[-1]
    for offset in range(start + 4, end, 3):
        corrupt = bytearray(v2.bitstream)
        corrupt[offset] ^= 0xFF
        corrupt = bytes(corrupt)
        try:
            list(stream_decode([corrupt]))
        except Exception as exc:  # noqa: BLE001 - parity is about *any* error
            return corrupt, exc
    pytest.fail("no corrupting offset found in the last payload")


class TestParseStage:
    def test_normalize_pipeline(self):
        assert normalize_pipeline(False) is None
        assert normalize_pipeline(None) is None
        assert normalize_pipeline(True) == "thread"
        assert normalize_pipeline("thread") == "thread"
        assert normalize_pipeline("process") == "process"
        with pytest.raises(ValueError, match="pipeline"):
            normalize_pipeline("fork")

    def test_kind_and_depth_validated(self):
        with pytest.raises(ValueError, match="kind"):
            ParseStage(kind="fork")
        with pytest.raises(ValueError, match="depth"):
            ParseStage(depth=0)

    def test_thread_stage_results_in_order_nothing_copied(self, payloads):
        stage = ParseStage(kind="thread", depth=len(payloads))
        try:
            for payload in payloads:
                stage.submit(payload)
            results = [stage.poll(block=True) for _ in payloads]
        finally:
            stage.close()
        assert [seq for _tag, seq, _v in results] == list(range(len(payloads)))
        assert all(tag == "ok" for tag, _seq, _v in results)
        assert [v for _tag, _seq, v in results] == [parse_payload(p) for p in payloads]
        assert stage.bytes_copied == 0 and stage.handles_passed == 0

    def test_process_stage_ships_handles_and_cleans_up(self, payloads):
        stage = ParseStage(kind="process", depth=len(payloads))
        try:
            for payload in payloads:
                stage.submit(payload)
            results = [stage.poll(block=True) for _ in payloads]
        finally:
            stage.close()
        assert [v for _tag, _seq, v in results] == [parse_payload(p) for p in payloads]
        # Only the compressed feed crossed by value; the parsed arrays
        # came back as shared-memory handles, >= 1 per picture.
        assert stage.bytes_copied == sum(len(p) for p in payloads)
        assert stage.handles_passed >= len(payloads)
        assert not shm_segments("repro-pipe")

    def test_close_discards_in_flight_without_leaks(self, payloads):
        stage = ParseStage(kind="process", depth=2)
        for payload in payloads:
            stage.submit(payload)
        stage.close()  # results never collected — discarded and unlinked
        stage.close()  # idempotent
        assert not shm_segments("repro-pipe")
        with pytest.raises(ValueError, match="closed"):
            stage.submit(b"")


class TestPipelinedDecoder:
    @pytest.mark.parametrize("chunk", [1, 7, 64, 10**6])
    def test_thread_chunkings_bit_identical(self, v2, whole, chunk):
        """Any chunking — including 1-byte feeds — through the
        thread-pipelined session decodes bit-identically to serial."""
        chunks = [v2.bitstream[i : i + chunk] for i in range(0, len(v2.bitstream), chunk)]
        assert_frames_equal(list(stream_decode(chunks, pipeline="thread")), whole)

    def test_process_mode_bit_identical_and_leak_free(self, v2, whole):
        chunks = [v2.bitstream[i : i + 7] for i in range(0, len(v2.bitstream), 7)]
        assert_frames_equal(list(stream_decode(chunks, pipeline="process")), whole)
        assert not shm_segments("repro-pipe")

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_random_chunkings_bit_identical(self, v2, whole, data):
        cuts = sorted(
            data.draw(
                st.lists(st.integers(0, len(v2.bitstream)), min_size=0, max_size=40),
                label="cuts",
            )
        )
        points = [0, *cuts, len(v2.bitstream)]
        chunks = [v2.bitstream[a:b] for a, b in zip(points, points[1:])]
        assert_frames_equal(list(stream_decode(chunks, pipeline=True)), whole)

    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_error_parity_mid_pipeline(self, corrupt_stream, kind):
        """A corrupt payload fed mid-stream raises the serial path's
        exact error — same type, same message — from the pipelined
        session, and tears the stage down without leaking."""
        corrupt, serial_exc = corrupt_stream
        decoder = StreamDecoder(max_buffered_frames=10, pipeline=kind)
        with pytest.raises(type(serial_exc)) as err:
            for i in range(0, len(corrupt), 11):
                decoder.feed(corrupt[i : i + 11])
                list(decoder.frames())
            decoder.close()
            list(decoder.frames())
        assert str(err.value) == str(serial_exc)
        assert not shm_segments("repro-pipe")

    def test_backpressure_bound_holds(self, v2, whole):
        """A demand-honoring producer never sees more decoded frames
        buffered than ``max_buffered_frames``, pipeline or not."""
        decoder = StreamDecoder(max_buffered_frames=1, pipeline="thread")
        out = []
        pos = 0
        while pos < len(v2.bitstream):
            if decoder.demand > 0:
                decoder.feed(v2.bitstream[pos : pos + 64])
                pos += 64
            else:
                out.extend(decoder.frames())
            assert decoder.frames_decoded - len(out) <= decoder.max_buffered_frames
        decoder.close()
        out.extend(decoder.frames())
        assert_frames_equal(out, whole)

    def test_callback_mode_pipelined(self, v2, whole):
        got = []
        decoder = StreamDecoder(on_frame=got.append, pipeline="thread")
        for i in range(0, len(v2.bitstream), 11):
            decoder.feed(v2.bitstream[i : i + 11])
        decoder.close()
        assert list(decoder.frames()) == []  # the callback consumed everything
        assert_frames_equal(got, whole)

    def test_truncated_tail_raises_on_close(self, v2):
        """Complete frames decode despite a truncated tail, and close()
        raises the scanner's overrun error.  The pipelined drain is
        asynchronous while demand remains (frames() only *waits* when
        it would otherwise stall the producer), so poll until the
        in-flight parses land."""
        index = FrameIndex.scan(v2.bitstream)
        cut = index.ranges[-1][1] - 3
        decoder = StreamDecoder(max_buffered_frames=len(index), pipeline="thread")
        decoder.feed(v2.bitstream[:cut])
        got = []
        for _ in range(10_000):
            got.extend(decoder.frames())
            if len(got) == len(index) - 1:
                break
            time.sleep(0.001)
        assert len(got) == len(index) - 1
        with pytest.raises(ValueError, match="overruns"):
            decoder.close()

    def test_invalid_pipeline_flag_rejected(self):
        with pytest.raises(ValueError, match="pipeline"):
            StreamDecoder(pipeline="fork")


# -- iterator encoder ------------------------------------------------------


class TestStreamEncoder:
    @pytest.mark.parametrize("version", [1, 2])
    def test_byte_identical_to_whole_sequence_encoder(self, clip, v1, v2, version):
        reference = v1 if version == 1 else v2
        encoder = StreamEncoder(estimator="tss", qp=18, bitstream_version=version)
        streamed = b"".join(encoder.encode_iter(iter(clip)))
        assert streamed == reference.bitstream
        assert [r.bits for r in encoder.records] == [r.bits for r in reference.frames]

    def test_v2_chunks_are_framed_pictures(self, clip, v2):
        encoder = StreamEncoder(estimator="tss", qp=18, bitstream_version=2)
        chunks = list(encoder.encode_iter(iter(clip)))
        assert len(chunks) == len(clip)
        start = FRAME_START_CODE.to_bytes(4, "big")
        assert all(chunk.startswith(start) for chunk in chunks)
        index = FrameIndex.scan(v2.bitstream)
        assert [len(c) for c in chunks] == [
            end - start_ + 8 for start_, end in index.ranges
        ]

    def test_v1_emits_incrementally_with_final_padding(self, clip, v1):
        """v1 pictures pack unaligned: whole bytes flow out per picture
        and the zero-padded final partial byte arrives last."""
        encoder = StreamEncoder(estimator="tss", qp=18, bitstream_version=1)
        chunks = list(encoder.encode_iter(iter(clip)))
        assert b"".join(chunks) == v1.bitstream
        assert len(chunks) >= len(clip)

    def test_empty_iterator_raises(self):
        encoder = StreamEncoder(estimator="tss", qp=18)
        with pytest.raises(ValueError, match="at least one frame"):
            list(encoder.encode_iter(iter([])))

    def test_mixed_geometry_raises(self, clip):
        other = random_sequence(1, seed=9, geometry=FrameGeometry(48, 32))
        encoder = StreamEncoder(estimator="tss", qp=18)
        with pytest.raises(ValueError, match="mixed geometries"):
            list(encoder.encode_iter([clip[0], other[0]]))

    def test_encode_straight_from_yuv_file(self, clip, tmp_path):
        """The bounded-ingest path: iter_yuv_frames → StreamEncoder →
        StreamDecoder round trip, no Sequence ever materialized."""
        path = tmp_path / "clip.yuv"
        write_yuv(path, clip)
        encoder = StreamEncoder(estimator="tss", qp=18, bitstream_version=2)
        streamed = b"".join(encoder.encode_iter(iter_yuv_frames(path, SMALL)))
        reference = encode_sequence(
            read_yuv(path, SMALL), qp=18, estimator="tss",
            keep_reconstruction=True, bitstream_version=2,
        )
        assert streamed == reference.bitstream
        decoded = list(stream_decode([streamed[i : i + 7] for i in range(0, len(streamed), 7)]))
        assert_frames_equal(decoded, reference.reconstruction)


# -- sessions --------------------------------------------------------------


class TestSessions:
    def test_decode_session_stats(self, v2, qcif_v2):
        """Stats add up, and peak buffered bytes stay under the
        subsystem's memory bound — two frames' worth of payload plus one
        reconstruction window — on the small clip in 100-byte feeds and
        on a 30-frame QCIF stream in MTU-sized ones."""
        for encode, chunk in ((v2, 100), (qcif_v2, 1500)):
            bitstream = encode.bitstream
            session = DecodeSession(max_buffered_frames=2)
            out = []
            for i in range(0, len(bitstream), chunk):
                session.feed(bitstream[i : i + chunk])
                out.extend(session.frames())
            session.close()
            out.extend(session.frames())
            assert_frames_equal(out, decode_bitstream(bitstream))
            assert_frames_equal(out, encode.reconstruction)
            stats = session.stats()
            raw_frame = frame_size_bytes(out[0].geometry)
            max_payload = max(end - start for start, end in FrameIndex.scan(bitstream).ranges)
            assert stats.frames_in == stats.frames_out == len(out)
            assert stats.bytes_in == len(bitstream)
            assert stats.bytes_out == len(out) * raw_frame
            assert stats.buffered_bytes == 0
            assert 0 < stats.peak_buffered_bytes <= 2 * raw_frame + len(bitstream)
            assert stats.peak_buffered_bytes < 2 * max(raw_frame, max_payload) + raw_frame
            assert stats.wall_s > 0
            assert "frames" in stats.as_text()

    @pytest.mark.parametrize("pipeline", [False, "thread"])
    def test_decode_session_in_process_modes_copy_nothing(self, v2, whole, pipeline):
        """Serial and thread-pipelined sessions move every payload by
        reference: the transport ledger stays at zero and stays out of
        the stats text."""
        session = DecodeSession(max_buffered_frames=4, pipeline=pipeline)
        out = []
        session.feed(v2.bitstream)
        out.extend(session.frames())
        session.close()
        out.extend(session.frames())
        assert_frames_equal(out, whole)
        stats = session.stats()
        assert stats.bytes_copied == 0 and stats.handles_passed == 0
        assert "transport" not in stats.as_text()

    def test_decode_session_process_mode_ledger(self, v2, whole):
        """Process mode copies exactly the compressed payload bytes down
        and brings the parsed bulk back as handles — what the stats
        surface (and ``runner all``'s streaming stage) report."""
        index = FrameIndex.scan(v2.bitstream)
        compressed = sum(len(index.payload(v2.bitstream, i)) for i in range(len(index)))
        session = DecodeSession(max_buffered_frames=len(index), pipeline="process")
        out = []
        session.feed(v2.bitstream)
        out.extend(session.frames())
        session.close()
        out.extend(session.frames())
        assert_frames_equal(out, whole)
        stats = session.stats()
        assert stats.bytes_copied == compressed
        assert stats.handles_passed >= len(whole)
        assert "transport" in stats.as_text()
        assert not shm_segments("repro-pipe")

    def test_encode_session_stats(self, clip, v2):
        session = EncodeSession(estimator="tss", qp=18, bitstream_version=2)
        streamed = b"".join(session.encode_iter(iter(clip)))
        assert streamed == v2.bitstream
        stats = session.stats()
        raw_frame = 32 * 32 + 2 * 16 * 16
        assert stats.frames_in == stats.frames_out == len(clip)
        assert stats.bytes_in == len(clip) * raw_frame
        assert stats.bytes_out == len(v2.bitstream)
        assert len(session.records) == len(clip)
