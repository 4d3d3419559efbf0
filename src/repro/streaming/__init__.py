"""Incremental (streaming) codec layer: bounded-memory push decode and
frame-iterator encode.

Everything below this package operates on whole objects — a whole byte
buffer into :func:`repro.codec.decoder.decode_bitstream`, a whole
in-memory :class:`~repro.video.sequence.Sequence` into
:class:`~repro.codec.encoder.Encoder`.  This layer makes both
directions incremental without touching the wire format or the math:

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
  remaining demand); ``pipeline=True`` parses frame *n+1*'s symbols on
  one worker thread while frame *n* reconstructs, with at most
  ``max_buffered_frames + 1`` parses in flight;
* :class:`StreamEncoder` — pulls frames from any iterator (e.g.
  :func:`repro.video.yuv_io.iter_yuv_frames`, so a multi-gigabyte YUV
  file encodes without materializing a sequence), runs the closed loop
  over the reference list (one frame, or up to ``n_ref_frames`` under
  the GOP syntax) and yields encoded bytes per picture, byte-identical
  to the whole-sequence encoder in both wire formats;
* :class:`DecodeSession` / :class:`EncodeSession` — thin stat-keeping
  wrappers (frames in/out, bytes buffered, peak, wall clock, stalls)
  behind the ``runner stream-decode`` / ``stream-encode`` subcommands
  and ``runner all``'s streaming stage.

``tests/test_streaming.py`` pins the golden properties: StreamDecoder
output is bit-identical to :func:`decode_bitstream` under *every*
chunking of the same bytes (hypothesis-tested down to 1-byte feeds),
and StreamEncoder's concatenated chunks equal the whole-sequence
bitstream byte for byte.
"""

from repro.streaming.scanner import ScanState
from repro.streaming.decoder import StreamDecoder, stream_decode
from repro.streaming.encoder import StreamEncoder
from repro.streaming.session import DecodeSession, EncodeSession, SessionStats

__all__ = [
    "DecodeSession",
    "EncodeSession",
    "ScanState",
    "SessionStats",
    "StreamDecoder",
    "StreamEncoder",
    "stream_decode",
]
