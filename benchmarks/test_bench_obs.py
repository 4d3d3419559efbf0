"""Observability-overhead speed gate: tracing must be free when off.

One encode→decode round trip (foreman, 8 frames, Qp 16, TSS; every
instrumented seam hot) timed in three modes — instrumentation bypassed
(``tests.conftest.instrumentation_bypassed``), the shipped default
(tracer off, counters on) and fully traced.  The modes interleave
within each of 5 rounds, so slow drift on a shared machine — the
dominant error at a 2% bound — hits all of them alike; best-of per
mode.  The gate: disabled-mode throughput within 2% of the bypassed
floor.  Zero interference (identical bytes in all three modes) is
pinned by ``tests/test_obs.py``.
"""

import time

from repro.codec.decoder import decode_bitstream
from repro.codec.encoder import encode_sequence
from repro.obs import trace
from repro.video.synthesis.sequences import make_sequence

from tests.conftest import instrumentation_bypassed

#: Enough frames that the ~2% bound is measured over hundreds of
#: milliseconds, not timer noise.
OBS_FRAMES = 8
ROUNDS = 5


def test_obs_disabled_overhead_within_budget():
    clip = make_sequence("foreman", frames=OBS_FRAMES, seed=0)

    def round_trip() -> float:
        start = time.perf_counter()
        encode = encode_sequence(clip, qp=16, estimator="tss", keep_reconstruction=False)
        decode_bitstream(encode.bitstream)
        return time.perf_counter() - start

    bypassed = disabled = traced = float("inf")
    for _ in range(ROUNDS):
        with instrumentation_bypassed():
            bypassed = min(bypassed, round_trip())
        disabled = min(disabled, round_trip())
        trace.TRACER.enable()
        try:
            traced = min(traced, round_trip())
        finally:
            trace.TRACER.disable()
            trace.TRACER.drain()
    ratio = bypassed / disabled
    print(
        f"\nobs: bypassed {bypassed * 1e3:.1f} ms, disabled {disabled * 1e3:.1f} ms "
        f"-> {ratio:.3f}x of floor; traced {traced * 1e3:.1f} ms "
        f"-> {bypassed / traced:.3f}x"
    )
    assert ratio >= 0.98, (
        f"disabled-mode instrumentation costs too much: {ratio:.3f}x of the bypassed floor"
    )
