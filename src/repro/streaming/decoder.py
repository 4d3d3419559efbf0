"""Push-based streaming decoder with bounded memory.

:class:`StreamDecoder` is a decode *session*: the caller pushes byte
chunks of a version-2 stream in whatever sizes the transport delivers
(network reads, 1-byte feeds, chunk boundaries inside start codes or
length fields — all equivalent), and decoded frames come out as soon as
their last byte lands, bit-identical to what
:func:`repro.codec.decoder.decode_bitstream` produces from the whole
buffer.  The pipeline per frame is the one every whole-buffer mode
runs: :class:`ScanState` completes the payload,
:func:`~repro.codec.decoder.parse_payload` parses and length-checks it,
and :func:`~repro.codec.decoder.reconstruct_and_fold` rebuilds pixels
against the running reference list.  Errors come in the whole-buffer
decode's stream order: a framing error the scanner meets is held until
every payload before it has decoded, so a corrupt earlier payload
reports first.

Memory is bounded by ``max_buffered_frames``: once that many decoded
frames sit undrained, further completed payloads wait *as compressed
bytes* and :meth:`feed` reports zero demand — the backpressure signal
for the producer to pause until the consumer drains :meth:`frames`.
The decoder never drops or reorders anything; a producer that ignores
demand only grows the pending-payload queue.

Version-1 streams are not push-decodable (no framing to find picture
boundaries without parsing) and are rejected on the first bytes with a
precise error; the whole-buffer :func:`decode_bitstream` remains the
tool for those.

``pipeline=True`` overlaps the two halves of the per-frame work: a
one-thread :class:`~concurrent.futures.ThreadPoolExecutor` parses frame
*n+1*'s symbols while this side reconstructs frame *n*.  At most
``max_buffered_frames + 1`` parses are in flight, oldest first; the
rest stay compressed, as in serial mode.  Output remains bit-identical
and in order for any chunking.  Errors surface with the serial path's
exact message and order (the oldest future's ``result()`` re-raises
the parse's own exception) — possibly on a later ``feed``/``frames``
call, since the parse runs asynchronously.  :meth:`close` stops the
worker; whatever has not parsed by then parses inline as it drains.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Iterator

from repro.codec.decoder import parse_payload, reconstruct_and_fold

# Also bound here: perfbench/layers.py times these per-frame calls by module attribute.
from repro.codec.decoder import check_frame_length, parse_picture, reconstruct_picture  # noqa: F401
from repro.obs import metrics, trace
from repro.streaming.scanner import ScanState
from repro.video.frame import Frame

_MET_STALLS = metrics.counter("stream.stalls")
_MET_BYTES_IN = metrics.counter("stream.bytes_in")

#: Name prefix of the pipelined parse worker's thread.
PARSE_THREAD_PREFIX = "repro-parse"


def frame_bytes(frame: Frame) -> int:
    """Decoded size of a frame: the bytes of its three planes."""
    return frame.y.nbytes + frame.cb.nbytes + frame.cr.nbytes


class StreamDecoder:
    """Incremental v2 decode session.

    Parameters
    ----------
    max_buffered_frames:
        Decoded-frame buffer depth (>= 1).  When full, newly completed
        payloads stay compressed in a pending queue and :meth:`feed`
        reports zero demand until the consumer drains :meth:`frames`.
    pipeline:
        ``False`` (serial, the default) or ``True`` (parse on a worker
        thread).  Overlap only — decoded output is bit-identical.

    Usage::

        decoder = StreamDecoder()
        for chunk in transport:
            decoder.feed(chunk)
            for frame in decoder.frames():
                consume(frame)
        decoder.close()
        for frame in decoder.frames():
            consume(frame)
    """

    def __init__(self, max_buffered_frames: int = 2, pipeline: bool = False) -> None:
        if max_buffered_frames < 1:
            raise ValueError(
                f"max_buffered_frames must be >= 1, got {max_buffered_frames}"
            )
        if not isinstance(pipeline, bool):
            raise ValueError(
                f"pipeline must be True (parse on a worker thread) or False, got "
                f"{pipeline!r}; the 'process' parse stage was removed"
            )
        self.max_buffered_frames = max_buffered_frames
        self._scanner = ScanState(keep_payloads=True)
        self._ready: deque[Frame] = deque()
        #: Decoded reference list, most recent first; I-frames reset it.
        self._references: list[Frame] = []
        #: Positions of the I-frames decoded so far — the stream's
        #: random-access points.
        self.keyframes: list[int] = []
        #: Backpressure wait count: feeds the producer had to pause on
        #: (zero demand) plus blocking waits for an in-flight parse.
        self.stalls = 0
        #: Compressed bits per decoded frame, in decode order.
        self.frame_bits: list[int] = []
        self._frame_index = 0
        self._closed = False
        #: Peak bytes held across the scanner accumulator, completed-but-
        #: undecoded payloads and decoded-but-undrained frames — the
        #: quantity ``runner all`` and the streaming tests bound.
        self.peak_buffered_bytes = 0
        self._pipeline = pipeline
        self._executor: ThreadPoolExecutor | None = None  # started on the first payload
        #: Payloads handed to the worker, oldest first, with their parses.
        self._in_flight: deque[tuple[bytes, Future]] = deque()
        self._parse_error: Exception | None = None
        #: Scanner error, held until the payloads before it decode.
        self._scan_error: ValueError | None = None

    # -- introspection ---------------------------------------------------

    @property
    def bytes_fed(self) -> int:
        return self._scanner.bytes_fed

    @property
    def frames_decoded(self) -> int:
        """Frames fully decoded so far (drained or not)."""
        return self._frame_index

    @property
    def frames_scanned(self) -> int:
        """Input pictures whose payload has fully arrived."""
        return self._scanner.frames_scanned

    @property
    def buffered_bytes(self) -> int:
        """Bytes currently buffered: scanner accumulator + pending
        compressed payloads (including any in flight on the parse
        worker) + decoded frames awaiting :meth:`frames`."""
        return (
            self._scanner.buffered_bytes
            + sum(len(p) for p in self._scanner.payloads)
            + sum(len(p) for p, _ in self._in_flight)
            + sum(frame_bytes(f) for f in self._ready)
        )

    @property
    def demand(self) -> int:
        """How many more frames the session is willing to buffer —
        zero means "drain :meth:`frames` before feeding more"."""
        backlog = len(self._ready) + len(self._scanner.payloads) + len(self._in_flight)
        return max(0, self.max_buffered_frames - backlog)

    # -- the push surface ------------------------------------------------

    def feed(self, chunk: bytes) -> int:
        """Push the next chunk; returns the remaining :attr:`demand`.

        Raises the same errors the whole-buffer decode raises on the
        same bytes, in the same order: a version-1 opening, garbage
        where a start code belongs, a corrupt length field, or a
        malformed picture payload.
        """
        if self._closed:
            raise ValueError("feed() after close(): the stream was already closed")
        if self._scan_error is None:
            try:
                self._scanner.feed(chunk)
            except ValueError as exc:
                self._scan_error = exc
        _MET_BYTES_IN.inc(len(chunk))
        self._advance()
        self._raise_scan_error_when_due()
        self._note_peak()
        demand = self.demand
        if demand == 0:
            # The producer must pause until frames() drains — one stall.
            self.stalls += 1
            _MET_STALLS.inc()
        return demand

    def frames(self) -> Iterator[Frame]:
        """Drain every decoded frame ready so far, oldest first.

        Draining frees buffer slots, so pending compressed payloads
        decode as the iterator advances — a consumer looping over this
        after every :meth:`feed` keeps the session inside its memory
        bound.  In pipelined mode the drain additionally *waits* for
        the oldest in-flight parse when it would otherwise stall the
        producer (demand is zero, or a framing error is held so no more
        input will come) — so the serial consumer loop works unchanged
        and never livelocks.  Once nothing is left ahead of a held
        framing error, the drain raises it.
        """
        while True:
            self._advance()
            if not self._ready and self._in_flight:
                if self._scan_error is not None or self.demand == 0:
                    self.stalls += 1
                    _MET_STALLS.inc()
                    with trace.span("stream.stall", in_flight=len(self._in_flight)):
                        self._pump_pipeline(block=True)
            if not self._ready:
                self._raise_scan_error_when_due()
                return
            yield self._ready.popleft()

    def close(self) -> None:
        """Declare end of stream.

        Validates the tail exactly as the whole-buffer scan does
        (:meth:`ScanState.finish`); its "overruns" error surfaces here,
        or from :meth:`frames` while payloads before it are undecoded.
        Frames already completed remain drainable via :meth:`frames`.
        In pipelined mode the parse worker stops here: the parse it is
        running finishes, queued ones are cancelled and parse inline
        as :meth:`frames` drains.  Idempotent.
        """
        if self._closed:
            return
        if self._scan_error is None:
            try:
                self._scanner.finish()
            except ValueError as exc:
                self._scan_error = exc
        self._closed = True
        self._shutdown()
        self._raise_scan_error_when_due()

    # -- internals -------------------------------------------------------

    def _advance(self) -> None:
        """Decode pending payloads into the ready queue up to the
        buffer bound."""
        if self._pipeline:
            self._pump_pipeline(block=False)
            return
        payloads = self._scanner.payloads
        while payloads and self._has_room:
            payload = payloads.popleft()
            self._note_frame(parse_payload(payload), len(payload))

    def _pump_pipeline(self, block: bool) -> None:
        """Pipelined advance: keep up to ``max_buffered_frames + 1``
        payloads parsing on the worker, then reconstruct finished
        parses in order up to the buffer bound.  ``block=True`` waits
        on the oldest parse when no frame is ready (the :meth:`frames`
        stall-breaker).  Once closed, parses the worker never ran and
        payloads it never saw parse inline."""
        if self._parse_error is not None:
            raise self._parse_error
        payloads = self._scanner.payloads
        in_flight = self._in_flight
        while True:
            while payloads and not self._closed and len(in_flight) <= self.max_buffered_frames:
                if self._executor is None:
                    self._executor = ThreadPoolExecutor(
                        max_workers=1, thread_name_prefix=PARSE_THREAD_PREFIX
                    )
                payload = payloads.popleft()
                in_flight.append((payload, self._executor.submit(parse_payload, payload)))
            if not self._has_room:
                return
            if in_flight:
                payload, future = in_flight[0]
                if not (future.done() or (block and not self._ready)):
                    return
                in_flight.popleft()
            elif payloads:
                payload, future = payloads.popleft(), None
            else:
                return
            try:
                if future is None or future.cancelled():
                    parsed = parse_payload(payload)
                else:
                    parsed = future.result()
            except Exception as exc:
                self._parse_error = exc
                self._shutdown()
                raise
            self._note_frame(parsed, len(payload))

    @property
    def _has_room(self) -> bool:
        """Whether another decoded frame fits the buffer bound."""
        return len(self._ready) < self.max_buffered_frames

    def _note_frame(self, parsed, payload_size: int) -> None:
        """Reconstruct one parsed picture, fold it into the running
        reference list (I-frames also mark a random-access point) and
        queue it for :meth:`frames`."""
        frame, self._references = reconstruct_and_fold(
            parsed, self._references, self._frame_index
        )
        if parsed.header.frame_type == "I":
            self.keyframes.append(self._frame_index)
        self.frame_bits.append(8 * payload_size)
        self._frame_index += 1
        self._ready.append(frame)
        # Pipelined sessions reconstruct most frames inside frames(),
        # and those can drain before the next feed samples the peak.
        self._note_peak()

    def _raise_scan_error_when_due(self) -> None:
        """Raise the held framing error once no payload before it is
        left undecoded (decoded frames may still await :meth:`frames`)."""
        if self._scan_error is None or self._scanner.payloads or self._in_flight:
            return
        self._shutdown()
        raise self._scan_error

    def _shutdown(self) -> None:
        """Stop the parse worker: its running parse finishes, queued
        ones are cancelled, and its thread is joined."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def _note_peak(self) -> None:
        self.peak_buffered_bytes = max(self.peak_buffered_bytes, self.buffered_bytes)


def stream_decode(
    chunks,
    max_buffered_frames: int = 2,
    pipeline: bool = False,
) -> Iterator[Frame]:
    """Decode an iterable of byte chunks, yielding frames as they
    complete — the generator face of :class:`StreamDecoder`.

    >>> from repro.codec.encoder import encode_sequence
    >>> from repro.video.synthesis.sequences import make_sequence
    >>> seq = make_sequence("miss_america", frames=2)
    >>> enc = encode_sequence(seq, qp=20, keep_reconstruction=True,
    ...                       bitstream_version=2)
    >>> chunks = [enc.bitstream[i:i + 7] for i in range(0, len(enc.bitstream), 7)]
    >>> decoded = list(stream_decode(chunks))
    >>> all(d == r for d, r in zip(decoded, enc.reconstruction))
    True
    """
    decoder = StreamDecoder(max_buffered_frames=max_buffered_frames, pipeline=pipeline)
    for chunk in chunks:
        decoder.feed(chunk)
        yield from decoder.frames()
    decoder.close()
    yield from decoder.frames()
