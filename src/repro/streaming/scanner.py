"""Incremental version-2 start-code scanner: the one walker of v2 framing.

:class:`ScanState` is a stateful accumulator: bytes arrive in
arbitrarily split chunks through :meth:`feed`, the scanner hops the
byte-aligned ``00 00 01 B6`` start codes and 32-bit length fields, and
each completed frame payload (picture header through padding — the
byte range :func:`~repro.codec.decoder.parse_payload` consumes) is
emitted as soon as its last byte lands.  The accumulator never holds
more than one in-flight frame plus whatever tail of the current chunk
follows it, which is the memory bound the streaming decoder builds on.

Every v2 decode entry point reads framing through this class: the push
decoder feeds it chunk by chunk, and the whole-buffer decoders
(serial, parallel-parse, seeking, ``parse_bitstream_symbols``) feed it
the whole stream once through :meth:`repro.codec.decoder.FrameIndex.walk`.
So every property the v2 golden tests pin (short trailing fragments
ignored, frame-sized garbage rejected, corrupt length fields rejected)
holds for any chunking, with the same errors.  A framing error is
raised after the ranges before it are recorded, which is what lets
every consumer decode those frames first and raise the error in stream
order.  A length field pointing past the end of the stream is only
*detectable* at end of stream, so the "overruns" error surfaces from
:meth:`finish`.
"""

from __future__ import annotations

from collections import deque

from repro.codec.encoder import (
    FRAME_LENGTH_BITS,
    FRAME_START_CODE,
    FRAME_START_CODE_BITS,
    PICTURE_HEADER_BITS,
)

#: The byte-aligned start code and length field as byte strings.
START_BYTES = FRAME_START_CODE.to_bytes(FRAME_START_CODE_BITS // 8, "big")
LENGTH_BYTES = FRAME_LENGTH_BITS // 8
FRAMING_BYTES = len(START_BYTES) + LENGTH_BYTES

#: Smallest byte count that can still open a frame (framing + picture
#: header).  The scanner refuses to validate a start code before this
#: many bytes have accumulated past it: a shorter tail must stay
#: *unjudged* until :meth:`ScanState.finish` sees the end of the stream.
MIN_FRAME_BYTES = (
    FRAME_START_CODE_BITS + FRAME_LENGTH_BITS + PICTURE_HEADER_BITS + 7
) // 8


class ScanState:
    """Stateful v2 frame-boundary scanner with bounded buffering.

    Parameters
    ----------
    keep_payloads:
        ``True`` (default) queues each completed payload's bytes on
        :attr:`payloads` for a consumer to pop (the streaming decoder's
        mode).  ``False`` records only the byte :attr:`ranges` — the
        whole-buffer ``FrameIndex.walk`` mode, which already holds the
        stream and doesn't want a second copy.
    """

    def __init__(self, keep_payloads: bool = True) -> None:
        self._buf = bytearray()
        self._base = 0  # absolute stream offset of _buf[0]
        self._expected_end: int | None = None  # in-flight frame's declared end
        self._frame_start = 0  # absolute offset of the in-flight frame's start code
        self._finished = False
        self.keep_payloads = keep_payloads
        #: Completed payloads in stream order (``keep_payloads`` mode).
        self.payloads: deque[bytes] = deque()
        #: Absolute half-open byte spans of every completed payload.
        self.ranges: list[tuple[int, int]] = []

    # -- introspection ---------------------------------------------------

    @property
    def bytes_fed(self) -> int:
        """Total bytes accepted so far."""
        return self._base + len(self._buf)

    @property
    def buffered_bytes(self) -> int:
        """Bytes currently held in the accumulator (excludes payloads
        already emitted but not yet popped)."""
        return len(self._buf)

    @property
    def frames_scanned(self) -> int:
        return len(self.ranges)

    # -- feeding ---------------------------------------------------------

    def feed(self, chunk: bytes) -> int:
        """Accept the next ``chunk`` of the stream; returns the number
        of frame payloads completed by it.

        Cost: one pass over the frames the chunk completes, then one
        tail trim — never a per-frame move of the remaining bytes.
        When the accumulator is empty the scan runs directly over
        ``chunk`` and retains only the unconsumed tail, so the
        whole-buffer ``FrameIndex.walk`` (one feed of the whole stream)
        stays O(frames) with no copy of the stream.

        Raises
        ------
        ValueError
            With the offending absolute byte offset named: a stream
            that does not open with version-2 framing, or garbage where
            a start code belongs.  :attr:`ranges` already holds every
            payload completed before it.
        """
        if self._finished:
            raise ValueError("feed() after finish(): the stream was already closed")
        if self._buf:
            self._buf += chunk
            data = self._buf
        else:
            data = chunk
        base = self._base  # absolute stream offset of data[0]
        n = len(data)
        pos = 0  # index into data of the first unconsumed byte
        completed = 0
        error: ValueError | None = None
        while True:
            if self._expected_end is None:
                # A start code is only judged once a minimal frame could
                # follow it; see MIN_FRAME_BYTES.
                if n - pos < MIN_FRAME_BYTES:
                    break
                if base + pos == 0 and bytes(data[:3]) != START_BYTES[:3]:
                    error = self._version_error(bytes(data[:3]))
                    break
                if data[pos : pos + len(START_BYTES)] != START_BYTES:
                    error = ValueError(
                        f"bad frame start code at byte {base + pos}: expected "
                        f"{START_BYTES.hex()}, "
                        f"found {bytes(data[pos : pos + len(START_BYTES)]).hex()}"
                    )
                    break
                length = int.from_bytes(
                    data[pos + len(START_BYTES) : pos + FRAMING_BYTES], "big"
                )
                self._frame_start = base + pos
                self._expected_end = self._frame_start + FRAMING_BYTES + length
            end = self._expected_end - base
            if end > n:
                break
            payload_start = self._frame_start + FRAMING_BYTES
            if self.keep_payloads:
                self.payloads.append(bytes(data[payload_start - base : end]))
            self.ranges.append((payload_start, self._expected_end))
            pos = end
            self._expected_end = None
            completed += 1
        # Retain only the unconsumed tail (the in-flight frame so far, a
        # fragment shorter than a minimal frame, or — on error — the
        # offending bytes).  Runs before any raise so bytes_fed /
        # buffered_bytes stay consistent with the frames already
        # recorded from this chunk.
        self._base = base + pos
        if data is self._buf:
            del self._buf[:pos]
        else:
            self._buf = bytearray(data[pos:])
        if error is not None:
            raise error
        return completed

    def finish(self) -> None:
        """Declare end of stream and validate the tail.

        A tail that holds a whole start code and length field opens a
        frame, however short: it is judged like any other, so a frame
        whose declared payload fully arrived is emitted (its parse then
        decides), and one whose payload never fully arrived — in flight
        or not — raises the "overruns" error with the frame's byte
        offset and the declared vs actual extents.  Any other fragment
        too short to hold a minimal frame is ignored.  A whole stream
        too short to have had its opening bytes judged yet raises the
        version error if those bytes cannot open version-2 framing (the
        same classification ``FrameIndex.walk`` applies — a short v1
        feed must not pass for a clean empty stream).  Idempotent once
        it returns cleanly.
        """
        if self._finished:
            return
        buf = self._buf
        while self._expected_end is None and len(buf) >= FRAMING_BYTES and buf.startswith(START_BYTES):
            length = int.from_bytes(buf[len(START_BYTES) : FRAMING_BYTES], "big")
            self._frame_start = self._base
            self._expected_end = self._base + FRAMING_BYTES + length
            self.feed(b"")  # emits the frame if its payload is all here
            buf = self._buf
        if self._expected_end is not None:
            total = self.bytes_fed
            length = self._expected_end - self._frame_start - FRAMING_BYTES
            raise ValueError(
                f"frame at byte {self._frame_start} overruns the stream: its "
                f"length field declares a {length}-byte payload ending at byte "
                f"{self._expected_end}, but the stream ends at byte {total}"
            )
        if self._base == 0 and not START_BYTES.startswith(bytes(buf[:3])):
            raise self._version_error(bytes(buf[:3]))
        self._finished = True

    def _version_error(self, opening: bytes) -> ValueError:
        return ValueError(
            "push decode requires a version-2 stream (byte-aligned start "
            f"codes): the stream opens with {opening.hex()} instead of "
            f"{START_BYTES[:3].hex()} — version-1 streams are not splittable "
            "without parsing"
        )
