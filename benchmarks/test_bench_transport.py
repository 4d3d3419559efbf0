"""Transport speed gate: shared-memory vs pickling transport at the
same worker count.

The one path that can ship pixels through shared memory is the per-GOP
parallel encode: a 12-frame QCIF clip (foreman, Qp 16, TSS) with
``i_period=6`` — two GOPs on two workers — encoded with
``use_shm=True`` and with the default pickling transport, best-of-3
each way.  Machine-shaped: with >= 2 cores the shm path must not lose
to pickling (>= 0.9x); on one core only pathology fails.  What crosses
the pipe (the >= 40x GOP spec shrink), byte identity and ``/dev/shm``
hygiene are pinned by ``tests/test_transport.py`` and
``tests/test_parallel.py``.
"""

from repro.parallel.gop import encode_sequence_parallel
from repro.video.synthesis.sequences import make_sequence

from .conftest import best_of, cores

#: The acceptance workload (independent of REPRO_BENCHMARK_FRAMES).
TRANSPORT_FRAMES = 12
TRANSPORT_I_PERIOD = 6


def test_transport_gop_encode_speedup():
    clip = make_sequence("foreman", frames=TRANSPORT_FRAMES, seed=0)

    def encode(use_shm: bool) -> bytes:
        return encode_sequence_parallel(
            clip, qp=16, estimator="tss", i_period=TRANSPORT_I_PERIOD, jobs=2,
            use_shm=use_shm,
        ).bitstream

    assert encode(True) == encode(False)
    plain = best_of(lambda: encode(False), 3)
    shm = best_of(lambda: encode(True), 3)
    speedup = plain / shm
    print(
        f"\ngop encode --jobs 2: plain {plain * 1e3:.1f} ms vs shm {shm * 1e3:.1f} ms "
        f"-> {speedup:.2f}x ({cores()} cpu)"
    )
    if cores() >= 2:
        assert speedup >= 0.9, f"shm gop encode lost to pickling: {speedup:.2f}x"
    else:
        assert speedup >= 0.3, f"shm gop encode overhead exploded: {speedup:.2f}x"
