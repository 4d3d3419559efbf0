"""Incremental (streaming) decode: bounded-memory push decode.

Everything below this package operates on whole objects — a whole byte
buffer into :func:`repro.codec.decoder.decode_bitstream`.  This layer
makes the decode direction incremental without touching the wire
format or the math (the encode direction needs no layer of its own:
:meth:`repro.codec.encoder.Encoder.encode_frames` pulls frames from any
iterator, and ``writer.drain()`` after each frame emits its bytes):

* :class:`ScanState` — the version-2 start-code/length scanner as a
  stateful accumulator: feed it arbitrarily split byte chunks and it
  emits completed frame payloads, holding at most one in-flight frame's
  bytes.  It is the one v2 framing walker: the whole-buffer decoders
  feed it the whole stream through ``FrameIndex.walk``, so every mode
  accepts and rejects exactly the same streams;
* :class:`StreamDecoder` — push-based decode session:
  ``feed(chunk)`` → scan → :func:`~repro.codec.decoder.parse_payload`
  → batched :func:`~repro.codec.decoder.reconstruct_and_fold`, frames
  emitted as soon as they complete, memory bounded by
  ``max_buffered_frames`` with backpressure (``feed`` returns the
  remaining demand).  Every step runs inline on the caller's thread:
  ``frames()`` never blocks, and ``stalls`` counts only the feeds that
  returned zero demand.  It keeps its own session counters — frames
  scanned and decoded, bytes fed, current and peak buffered bytes,
  stalls, keyframes and per-frame bits — which the
  ``runner stream-decode`` / ``all`` summaries read directly.

``tests/test_streaming.py`` pins the golden properties: StreamDecoder
output is bit-identical to :func:`decode_bitstream` under *every*
chunking of the same bytes (hypothesis-tested down to 1-byte feeds),
and ``Encoder.encode_frames``' drained chunks equal the whole-sequence
bitstream byte for byte.
"""

from repro.streaming.scanner import ScanState
from repro.streaming.decoder import StreamDecoder, stream_decode

__all__ = [
    "ScanState",
    "StreamDecoder",
    "stream_decode",
]
