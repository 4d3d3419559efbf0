"""Stat-keeping session wrappers around the streaming codec.

:class:`DecodeSession` and :class:`EncodeSession` are the thin layer the
CLI subcommands (``runner stream-decode`` / ``stream-encode``) and
``runner all``'s streaming stage talk to: the same push/pull surfaces as
:class:`~repro.streaming.decoder.StreamDecoder` /
:class:`~repro.streaming.encoder.StreamEncoder`, plus a
:class:`SessionStats` snapshot — frames and bytes in and out, current
and peak buffered bytes, backpressure stalls, per-frame bits, wall
clock since the session opened — so a serving harness can report
throughput and verify the memory bound without instrumenting the
internals.

Each session owns a private :class:`~repro.obs.metrics.MetricsRegistry`
and :class:`SessionStats` is a read-out of it: counters the session
increments directly (frames/bytes drained) plus mirrors of the
underlying codec's own monotonic counters
(:meth:`~repro.obs.metrics.Counter.advance_to` keeps mirroring
idempotent), with the per-frame bits history as a registry histogram.
A future multi-session server scrapes ``session.registry`` directly;
:meth:`stats` stays for the CLI and the benches.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.obs.metrics import MetricsRegistry
from repro.streaming.decoder import StreamDecoder, frame_bytes
from repro.streaming.encoder import StreamEncoder
from repro.video.frame import Frame


@dataclass(frozen=True)
class SessionStats:
    """One session's counters at a point in time.

    ``bytes_copied`` and ``handles_passed`` are the transport ledger:
    payload bytes that crossed a process boundary by value, and
    shared-memory handles that crossed instead.  Both stay zero unless
    the session runs a process-mode parse pipeline — in-process work
    has no boundary to account for.  ``keyframes`` counts the session's
    I-frames — more than one means the stream carries GOP structure
    (``i_Period``) and supports mid-stream random access.  ``stalls``
    counts backpressure waits — feeds the producer had to pause on plus
    blocking waits for an in-flight parse — and ``bits_out`` is the
    per-frame compressed-bits history (decode: payload bits per decoded
    frame; encode: emitted bits per frame), the ledger rate control
    will build its bits-per-Qp tables from.
    """

    frames_in: int
    frames_out: int
    bytes_in: int
    bytes_out: int
    buffered_bytes: int
    peak_buffered_bytes: int
    wall_s: float
    bytes_copied: int = 0
    handles_passed: int = 0
    keyframes: int = 0
    stalls: int = 0
    bits_out: tuple[int, ...] = ()

    def as_text(self) -> str:
        text = (
            f"frames {self.frames_in} in / {self.frames_out} out, "
            f"bytes {self.bytes_in} in / {self.bytes_out} out, "
            f"buffered {self.buffered_bytes} (peak {self.peak_buffered_bytes}), "
            f"{self.wall_s:.3f}s"
        )
        if self.bytes_copied or self.handles_passed:
            text += (
                f", transport {self.bytes_copied} B copied / "
                f"{self.handles_passed} handles"
            )
        if self.keyframes > 1:
            text += f", {self.keyframes} keyframes"
        if self.stalls:
            text += f", {self.stalls} stalls"
        return text


class DecodeSession:
    """A :class:`StreamDecoder` plus a metrics registry.

    ``frames_in`` counts completed input pictures (scanner frames),
    ``frames_out`` counts frames the consumer drained, ``bytes_out``
    counts their decoded pixel bytes.  ``pipeline`` passes through to
    :class:`StreamDecoder` (overlapped parse/reconstruct); the stats
    then include the decoder's transport counters.
    """

    def __init__(
        self, max_buffered_frames: int = 2, pipeline: bool | str = False
    ) -> None:
        self._decoder = StreamDecoder(
            max_buffered_frames=max_buffered_frames, pipeline=pipeline
        )
        self._started = time.perf_counter()
        self.registry = MetricsRegistry()

    def feed(self, chunk: bytes) -> int:
        """Push a chunk; returns remaining demand (see
        :meth:`StreamDecoder.feed`)."""
        return self._decoder.feed(chunk)

    def frames(self) -> Iterator[Frame]:
        frames_out = self.registry.counter("session.frames_out")
        bytes_out = self.registry.counter("session.bytes_out")
        for frame in self._decoder.frames():
            frames_out.inc()
            bytes_out.inc(frame_bytes(frame))
            yield frame

    def close(self) -> None:
        self._decoder.close()

    def _sync(self) -> None:
        """Mirror the decoder's own monotonic state into the registry."""
        decoder = self._decoder
        reg = self.registry
        reg.counter("session.frames_in").advance_to(decoder.frames_scanned)
        reg.counter("session.bytes_in").advance_to(decoder.bytes_fed)
        reg.counter("session.stalls").advance_to(decoder.stalls)
        reg.counter("session.bytes_copied").advance_to(decoder.bytes_copied)
        reg.counter("session.handles_passed").advance_to(decoder.handles_passed)
        reg.counter("session.keyframes").advance_to(len(decoder.keyframes))
        buffered = reg.gauge("session.buffered_bytes")
        buffered.set(decoder.buffered_bytes)
        # The decoder samples its own peak at every feed — fold it in,
        # since syncs are sparser than feeds.
        buffered.peak = max(buffered.peak, decoder.peak_buffered_bytes)
        bits = reg.histogram("session.frame_bits")
        bits.values.extend(decoder.frame_bits[len(bits.values) :])

    def stats(self) -> SessionStats:
        self._sync()
        reg = self.registry
        buffered = reg.gauge("session.buffered_bytes")
        return SessionStats(
            frames_in=reg.counter("session.frames_in").value,
            frames_out=reg.counter("session.frames_out").value,
            bytes_in=reg.counter("session.bytes_in").value,
            bytes_out=reg.counter("session.bytes_out").value,
            buffered_bytes=buffered.value,
            peak_buffered_bytes=buffered.peak,
            wall_s=time.perf_counter() - self._started,
            bytes_copied=reg.counter("session.bytes_copied").value,
            handles_passed=reg.counter("session.handles_passed").value,
            keyframes=reg.counter("session.keyframes").value,
            stalls=reg.counter("session.stalls").value,
            bits_out=tuple(int(v) for v in reg.histogram("session.frame_bits").values),
        )


class EncodeSession:
    """A :class:`StreamEncoder` plus a metrics registry.

    ``buffered_bytes`` for an encode is the writer's unflushed remainder
    — always less than one byte per picture boundary — so the stats
    surface reports zero; the interesting numbers are frames in, bytes
    out, per-frame bits and wall clock.
    """

    def __init__(
        self,
        estimator="acbm",
        qp: int = 16,
        estimator_kwargs: dict | None = None,
        bitstream_version: int = 1,
        i_period: int | None = None,
        n_ref_frames: int = 1,
    ) -> None:
        self._encoder = StreamEncoder(
            estimator=estimator,
            qp=qp,
            estimator_kwargs=estimator_kwargs,
            bitstream_version=bitstream_version,
            i_period=i_period,
            n_ref_frames=n_ref_frames,
        )
        self._started = time.perf_counter()
        self.registry = MetricsRegistry()

    @property
    def records(self):
        return self._encoder.records

    def encode_iter(self, frames: Iterable[Frame]) -> Iterator[bytes]:
        bytes_in = self.registry.counter("session.bytes_in")
        bytes_out = self.registry.counter("session.bytes_out")

        def counted(source: Iterable[Frame]) -> Iterator[Frame]:
            for frame in source:
                bytes_in.inc(frame_bytes(frame))
                yield frame

        for chunk in self._encoder.encode_iter(counted(frames)):
            bytes_out.inc(len(chunk))
            yield chunk

    def encode_to(self, sink, frames: Iterable[Frame]) -> int:
        written = 0
        for chunk in self.encode_iter(frames):
            sink.write(chunk)
            written += len(chunk)
        return written

    def _sync(self) -> None:
        records = self._encoder.records
        reg = self.registry
        reg.counter("session.frames").advance_to(len(records))
        reg.counter("session.keyframes").advance_to(len(self._encoder.keyframes))
        bits = reg.histogram("session.frame_bits")
        bits.values.extend(r.bits for r in records[len(bits.values) :])

    def stats(self) -> SessionStats:
        self._sync()
        reg = self.registry
        return SessionStats(
            frames_in=reg.counter("session.frames").value,
            frames_out=reg.counter("session.frames").value,
            bytes_in=reg.counter("session.bytes_in").value,
            bytes_out=reg.counter("session.bytes_out").value,
            buffered_bytes=0,
            peak_buffered_bytes=0,
            wall_s=time.perf_counter() - self._started,
            keyframes=reg.counter("session.keyframes").value,
            bits_out=tuple(int(v) for v in reg.histogram("session.frame_bits").values),
        )
