"""GOP speed gate: per-GOP parallel encode vs the serial encoder.

A 12-frame QCIF clip (foreman, Qp 16, TSS) with ``i_period=3`` — four
independent GOPs — encoded serially and with two workers, best-of-3.
Machine-shaped: with >= 2 cores the parallel encode must win by
>= 1.15x; on one core only pathology (spawn overhead) fails.  Splice
and seek identity are pinned by ``tests/test_gop.py``.
"""

from repro.codec.encoder import Encoder
from repro.parallel.gop import encode_sequence_parallel
from repro.video.synthesis.sequences import make_sequence

from .conftest import best_of, cores

#: The acceptance workload (independent of REPRO_BENCHMARK_FRAMES).
GOP_FRAMES = 12
GOP_I_PERIOD = 3


def test_gop_parallel_encode_speedup():
    clip = make_sequence("foreman", frames=GOP_FRAMES, seed=0)
    serial = best_of(
        lambda: Encoder(
            estimator="tss", qp=16, keep_reconstruction=False, bitstream_version=2,
            i_period=GOP_I_PERIOD,
        ).encode(clip),
        3,
    )
    parallel = best_of(
        lambda: encode_sequence_parallel(
            clip, qp=16, estimator="tss", i_period=GOP_I_PERIOD, jobs=2
        ),
        3,
    )
    speedup = serial / parallel
    print(
        f"\ngop encode: serial {serial * 1e3:.1f} ms vs --jobs 2 {parallel * 1e3:.1f} ms "
        f"-> {speedup:.2f}x ({cores()} cpu)"
    )
    if cores() >= 2:
        assert speedup >= 1.15, f"per-GOP parallel encode too slow: {speedup:.2f}x"
    else:
        assert speedup >= 0.2, f"per-GOP encode overhead exploded: {speedup:.2f}x"
