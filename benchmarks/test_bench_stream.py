"""Streaming speed gates: push decode vs whole-buffer decode, and the
pipelined session vs serial push.

A 30-frame QCIF v2 stream (foreman, Qp 16, TSS) is pushed through a
:class:`repro.streaming.DecodeSession` in MTU-sized chunks and timed
against :func:`decode_bitstream` over the whole buffer, best-of-3.
Identity under every chunking, the pipelined modes and the memory bound
are pinned by ``tests/test_streaming.py``.
"""

import pytest

from repro.codec.decoder import decode_bitstream
from repro.codec.encoder import encode_sequence
from repro.streaming import DecodeSession
from repro.video.synthesis.sequences import make_sequence

from .conftest import best_of, cores

#: The workload the memory bound is stated for (independent of
#: REPRO_BENCHMARK_FRAMES).
STREAM_FRAMES = 30
CHUNK = 1500


@pytest.fixture(scope="module")
def bitstream():
    clip = make_sequence("foreman", frames=STREAM_FRAMES, seed=0)
    return encode_sequence(clip, qp=16, estimator="tss", bitstream_version=2).bitstream


def push_decode(bitstream: bytes, pipeline: bool | str = False) -> list:
    """Feed fixed-size chunks, draining after every feed (the consumer
    the backpressure contract assumes)."""
    session = DecodeSession(max_buffered_frames=2, pipeline=pipeline)
    out = []
    for start in range(0, len(bitstream), CHUNK):
        session.feed(bitstream[start : start + CHUNK])
        out.extend(session.frames())
    session.close()
    out.extend(session.frames())
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


def test_pipelined_decode_speedup(bitstream):
    """On parallel hardware, parsing on a worker thread while the main
    side reconstructs must beat serial push by >= 1.2x; on one core the
    overlap cannot win and only pathology fails."""
    serial = best_of(lambda: push_decode(bitstream), 3)
    piped = best_of(lambda: push_decode(bitstream, pipeline="thread"), 3)
    speedup = serial / piped
    print(f"\npipelined (thread): {piped * 1e3:.1f} ms -> {speedup:.2f}x vs push ({cores()} cpu)")
    if cores() >= 2:
        assert speedup >= 1.2, f"pipelined decode regressed: only {speedup:.2f}x vs serial push"
    else:
        assert speedup >= 0.3, f"pipeline overhead exploded: {speedup:.2f}x of serial push"
