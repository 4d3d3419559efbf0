"""Streaming speed gate: push decode vs whole-buffer decode.

A 30-frame QCIF v2 stream (foreman, Qp 16, TSS) is pushed through a
:class:`repro.streaming.StreamDecoder` in MTU-sized chunks and timed
against :func:`decode_bitstream` over the whole buffer, best-of-3.
Identity under every chunking and the memory bound are pinned by
``tests/test_streaming.py``.
"""

import pytest

from repro.codec.decoder import decode_bitstream
from repro.codec.encoder import encode_sequence
from repro.streaming import StreamDecoder
from repro.video.synthesis.sequences import make_sequence

from .conftest import best_of

#: The workload the memory bound is stated for (independent of
#: REPRO_BENCHMARK_FRAMES).
STREAM_FRAMES = 30
CHUNK = 1500


@pytest.fixture(scope="module")
def bitstream():
    clip = make_sequence("foreman", frames=STREAM_FRAMES, seed=0)
    return encode_sequence(clip, qp=16, estimator="tss", bitstream_version=2).bitstream


def push_decode(bitstream: bytes) -> list:
    """Feed fixed-size chunks, draining after every feed (the consumer
    the backpressure contract assumes)."""
    decoder = StreamDecoder(max_buffered_frames=2)
    out = []
    for start in range(0, len(bitstream), CHUNK):
        decoder.feed(bitstream[start : start + CHUNK])
        out.extend(decoder.frames())
    decoder.close()
    out.extend(decoder.frames())
    return out


def test_stream_throughput_near_whole_buffer(bitstream):
    """The push path re-runs the same parse + batched reconstruction;
    its only extra work is scanning and bookkeeping, so throughput must
    stay >= 0.56x of the whole-buffer decode (measured ~0.9-1.0x)."""
    assert push_decode(bitstream) == decode_bitstream(bitstream)
    whole = best_of(lambda: decode_bitstream(bitstream), 3)
    push = best_of(lambda: push_decode(bitstream), 3)
    speedup = whole / push
    print(f"\nstream: whole {whole * 1e3:.1f} ms, push {push * 1e3:.1f} ms -> {speedup:.2f}x")
    assert speedup >= 0.56, (
        f"streaming tax regressed: push decode only {speedup:.2f}x of whole-buffer throughput"
    )

