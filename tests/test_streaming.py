"""Golden tests for the streaming subsystem (:mod:`repro.streaming`).

The two contracts everything else hangs off:

* **decode**: :class:`StreamDecoder` fed *any* chunking of a version-2
  stream — 1-byte feeds, splits inside start codes and length fields,
  random cuts (hypothesis) — produces frames bit-identical to
  :func:`decode_bitstream` over the whole buffer, and truncated or
  corrupt tails raise the same errors the whole-buffer scan raises;
* **encode**: :meth:`Encoder.encode_frames` pulling frames from an
  iterator (including straight off an on-disk YUV file), its writer
  drained after every picture, emits bytes identical to the
  whole-sequence :meth:`Encoder.encode`, in both wire formats.
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec.bitstream import BitWriter
from repro.codec.decoder import FrameIndex, decode_bitstream, parse_payload
from repro.codec.encoder import FRAME_START_CODE, Encoder, encode_sequence
from repro.experiments.runner import decode_summary
from repro.streaming import ScanState, StreamDecoder, stream_decode
from repro.streaming.decoder import PARSE_THREAD_PREFIX
from repro.streaming import decoder as stream_decoder_module
from repro.streaming.decoder import frame_bytes
from repro.video.frame import Frame, FrameGeometry
from repro.video.sequence import Sequence
from repro.video.synthesis.sequences import make_sequence
from repro.video.yuv_io import frame_size_bytes, iter_yuv_frames, read_yuv, write_yuv


SMALL = FrameGeometry(32, 32)

THREAD = pytest.param(True, id="thread")  # the parse-thread pipeline


def parse_threads():
    """Live threads of pipelined decoders' parse workers."""
    return [t for t in threading.enumerate() if t.name.startswith(PARSE_THREAD_PREFIX)]


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

    @pytest.mark.parametrize("pipeline", [False, THREAD])
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

    @pytest.mark.parametrize("pipeline", [False, THREAD])
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


class TestPipelinedDecoder:
    @pytest.mark.parametrize("chunk", [1, 7, 64, 10**6])
    def test_thread_chunkings_bit_identical(self, v2, whole, chunk):
        """Any chunking — including 1-byte feeds — through the
        thread-pipelined session decodes bit-identically to serial."""
        chunks = [v2.bitstream[i : i + chunk] for i in range(0, len(v2.bitstream), chunk)]
        assert_frames_equal(list(stream_decode(chunks, pipeline=True)), whole)

    def test_pipelined_bit_identical_and_leak_free(self, v2, whole):
        """``stream_decode`` closes its session, which joins the parse
        worker: no thread outlives the decode."""
        chunks = [v2.bitstream[i : i + 7] for i in range(0, len(v2.bitstream), 7)]
        assert_frames_equal(list(stream_decode(chunks, pipeline=True)), whole)
        assert not parse_threads()

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

    def test_results_arrive_in_order(self, v2, whole, payloads, monkeypatch):
        """Every payload parses on the worker thread, and the frames come
        out in stream order with each payload's bits credited to its own
        frame."""
        parsed_on = []

        def spy(payload):
            parsed_on.append(threading.current_thread().name)
            return parse_payload(payload)

        monkeypatch.setattr(stream_decoder_module, "parse_payload", spy)
        decoder = StreamDecoder(max_buffered_frames=1, pipeline=True)
        decoder.feed(v2.bitstream)  # demand stays 0, so every drain waits
        out = list(decoder.frames())
        decoder.close()
        assert list(decoder.frames()) == []
        assert_frames_equal(out, whole)
        assert decoder.frame_bits == [8 * len(p) for p in payloads]
        assert len(parsed_on) == len(payloads)
        assert all(name.startswith(PARSE_THREAD_PREFIX) for name in parsed_on)

    def test_failing_payload_raises_serial_error_at_same_frame(self, corrupt_stream):
        """The pipelined session yields the same frames as the serial one
        before a corrupt payload, then raises the same error."""
        corrupt, serial_exc = corrupt_stream
        outcomes = []
        for pipeline in (False, True):
            decoder = StreamDecoder(max_buffered_frames=1, pipeline=pipeline)
            got = []
            with pytest.raises(type(serial_exc)) as err:
                decoder.feed(corrupt)
                for frame in decoder.frames():
                    got.append(frame)
                decoder.close()
                got.extend(decoder.frames())
            outcomes.append((got, decoder.frames_decoded, str(err.value)))
        (serial, serial_count, serial_msg), (piped, piped_count, piped_msg) = outcomes
        assert_frames_equal(piped, serial)
        assert piped_count == serial_count == len(FrameIndex.scan(corrupt)) - 1
        assert piped_msg == serial_msg == str(serial_exc)
        assert not parse_threads()

    def test_close_with_parses_in_flight_stops_worker(self, v2, whole, monkeypatch):
        """close() joins the worker while parses are still queued — the
        queued ones are cancelled and parse inline as the frames drain —
        and a second close() is a no-op."""

        def slow_on_worker(payload):
            if threading.current_thread().name.startswith(PARSE_THREAD_PREFIX):
                time.sleep(0.02)
            return parse_payload(payload)

        monkeypatch.setattr(stream_decoder_module, "parse_payload", slow_on_worker)
        decoder = StreamDecoder(max_buffered_frames=len(whole), pipeline=True)
        decoder.feed(v2.bitstream)
        assert parse_threads() and decoder.frames_decoded == 0
        decoder.close()
        assert not parse_threads()
        decoder.close()
        assert not parse_threads()
        assert_frames_equal(list(decoder.frames()), whole)

    @pytest.mark.parametrize("pipeline", [False, THREAD])
    def test_error_parity_mid_pipeline(self, corrupt_stream, pipeline):
        """A corrupt payload fed mid-stream in 11-byte chunks raises the
        one-chunk serial decode's exact error — same type, same message —
        from the serial and the pipelined session, and no parse worker
        outlives it."""
        corrupt, serial_exc = corrupt_stream
        decoder = StreamDecoder(max_buffered_frames=10, pipeline=pipeline)
        with pytest.raises(type(serial_exc)) as err:
            for i in range(0, len(corrupt), 11):
                decoder.feed(corrupt[i : i + 11])
                list(decoder.frames())
            decoder.close()
            list(decoder.frames())
        assert str(err.value) == str(serial_exc)
        assert not parse_threads()

    def test_backpressure_bound_holds(self, v2, whole):
        """A demand-honoring producer never sees more decoded frames
        buffered than ``max_buffered_frames``, pipeline or not."""
        decoder = StreamDecoder(max_buffered_frames=1, pipeline=True)
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

    def test_truncated_tail_raises_on_close(self, v2):
        """Complete frames decode despite a truncated tail, and close()
        raises the scanner's overrun error.  The pipelined drain is
        asynchronous while demand remains (frames() only *waits* when
        it would otherwise stall the producer), so poll until the
        in-flight parses land."""
        index = FrameIndex.scan(v2.bitstream)
        cut = index.ranges[-1][1] - 3
        decoder = StreamDecoder(max_buffered_frames=len(index), pipeline=True)
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
        """``pipeline`` is a bool; anything else, the removed
        ``"process"`` mode included, is refused by name."""
        for flag in ("process", "thread", "fork", None, 1):
            with pytest.raises(ValueError, match="'process' parse stage was removed"):
                StreamDecoder(pipeline=flag)


# -- iterator encoder ------------------------------------------------------


def stream_encode(frames, version=2):
    """Drive :meth:`Encoder.encode_frames` as a byte-streaming caller
    does: drain the writer after every picture, then take the final
    ``getvalue()``.  Returns the non-empty chunks in emission order and
    the per-frame records."""
    encoder = Encoder(
        estimator="tss", qp=18, keep_reconstruction=False, bitstream_version=version
    )
    writer = BitWriter()
    chunks, records = [], []
    for record, _recon in encoder.encode_frames(writer, frames):
        records.append(record)
        chunks.append(writer.drain())
    chunks.append(writer.getvalue())
    return [chunk for chunk in chunks if chunk], records


class TestStreamEncoder:
    @pytest.mark.parametrize("version", [1, 2])
    def test_byte_identical_to_whole_sequence_encoder(self, clip, v1, v2, version):
        reference = v1 if version == 1 else v2
        chunks, records = stream_encode(iter(clip), version)
        assert b"".join(chunks) == reference.bitstream
        assert [r.bits for r in records] == [r.bits for r in reference.frames]

    def test_v2_chunks_are_framed_pictures(self, clip, v2):
        chunks, _records = stream_encode(iter(clip), 2)
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
        encoder = Encoder(estimator="tss", qp=18, keep_reconstruction=False)
        writer = BitWriter()
        chunks = [writer.drain() for _ in encoder.encode_frames(writer, iter(clip))]
        tail = writer.getvalue()
        assert all(chunks)  # every picture emitted bytes as it closed
        assert b"".join(chunks) + tail == v1.bitstream
        assert len(tail) == (1 if writer.bit_count % 8 else 0)

    def test_empty_iterator_raises(self):
        with pytest.raises(ValueError, match="at least one frame"):
            stream_encode(iter([]))

    def test_mixed_geometry_raises(self, clip):
        other = random_sequence(1, seed=9, geometry=FrameGeometry(48, 32))
        with pytest.raises(ValueError, match="mixed geometries"):
            stream_encode([clip[0], other[0]])

    def test_encode_straight_from_yuv_file(self, clip, tmp_path):
        """The bounded-ingest path: iter_yuv_frames → encode_frames →
        StreamDecoder round trip, no Sequence ever materialized."""
        path = tmp_path / "clip.yuv"
        write_yuv(path, clip)
        chunks, _records = stream_encode(iter_yuv_frames(path, SMALL), 2)
        streamed = b"".join(chunks)
        reference = encode_sequence(
            read_yuv(path, SMALL), qp=18, estimator="tss",
            keep_reconstruction=True, bitstream_version=2,
        )
        assert streamed == reference.bitstream
        decoded = list(stream_decode([streamed[i : i + 7] for i in range(0, len(streamed), 7)]))
        assert_frames_equal(decoded, reference.reconstruction)


# -- session counters ------------------------------------------------------


def push_decode(bitstream, chunk, **options):
    """Feed ``chunk``-byte pieces, draining after every feed; returns
    the frames and the closed decoder."""
    decoder = StreamDecoder(**options)
    out = []
    for i in range(0, len(bitstream), chunk):
        decoder.feed(bitstream[i : i + chunk])
        out.extend(decoder.frames())
    decoder.close()
    out.extend(decoder.frames())
    return out, decoder


class TestSessions:
    def test_decode_session_stats(self, v2, qcif_v2):
        """The decoder's counters add up, and peak buffered bytes stay
        under the subsystem's memory bound — serially, two frames' worth
        of payload plus one reconstruction window; pipelined, the
        ``max_buffered_frames + 1`` payloads in flight, the
        ``max_buffered_frames`` decoded frames and one chunk arriving —
        on the small clip in 100-byte feeds and on a 30-frame QCIF
        stream in MTU-sized ones.  A pipelined session reconstructs most
        frames while :meth:`frames` drains, and its peak still counts
        them: at least one raw frame."""
        depth = 2
        cases = [(encode, chunk, pipeline) for encode, chunk in ((v2, 100), (qcif_v2, 1500))
                 for pipeline in (False, True)]
        for encode, chunk, pipeline in cases:
            bitstream = encode.bitstream
            out, decoder = push_decode(
                bitstream, chunk, max_buffered_frames=depth, pipeline=pipeline
            )
            assert_frames_equal(out, decode_bitstream(bitstream))
            assert_frames_equal(out, encode.reconstruction)
            raw_frame = frame_size_bytes(out[0].geometry)
            max_payload = max(end - start for start, end in FrameIndex.scan(bitstream).ranges)
            assert decoder.frames_scanned == decoder.frames_decoded == len(out)
            assert decoder.bytes_fed == len(bitstream)
            assert sum(frame_bytes(f) for f in out) == len(out) * raw_frame
            assert decoder.buffered_bytes == 0
            assert 0 < decoder.peak_buffered_bytes <= 2 * raw_frame + len(bitstream)
            if pipeline:
                assert decoder.peak_buffered_bytes >= raw_frame
                assert decoder.peak_buffered_bytes <= (
                    (depth + 1) * max_payload + depth * raw_frame + chunk
                )
            else:
                assert decoder.peak_buffered_bytes < 2 * max(raw_frame, max_payload) + raw_frame
            summary = decode_summary(decoder, 0.25)
            assert summary.startswith(f"frames {len(out)} in / {len(out)} out, ")
            assert f"bytes {len(bitstream)} in" in summary and "0.250s" in summary

    @pytest.mark.parametrize("pipeline", [False, THREAD])
    def test_decode_session_in_process_modes_copy_nothing(self, v2, whole, pipeline):
        """Serial and thread-pipelined decoders decode identically and
        in-process: no transport ledger, and no parse thread outlives
        the decoder."""
        out, decoder = push_decode(
            v2.bitstream, len(v2.bitstream), max_buffered_frames=4, pipeline=pipeline
        )
        assert_frames_equal(out, whole)
        assert not hasattr(decoder, "bytes_copied")
        assert "transport" not in decode_summary(decoder, 0.0)
        assert decoder.frames_scanned == decoder.frames_decoded == len(whole)
        assert not parse_threads()

    def test_encode_session_stats(self, clip, v2):
        chunks, records = stream_encode(iter(clip), 2)
        assert b"".join(chunks) == v2.bitstream
        assert len(records) == len(clip)
        assert [8 * len(c) for c in chunks] == [r.bits for r in records]
        assert sum(len(c) for c in chunks) == len(v2.bitstream)
