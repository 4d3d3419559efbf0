"""Transport speed gates: shared-memory vs pickling transport at the
same worker count.

Two workloads, best-of-3 each way: the 2-worker parallel decode of a
12-frame QCIF v2 stream (foreman, Qp 16, TSS), and a 2-worker RD sweep
over the same clip.  Both are machine-shaped: with >= 2 cores the shm
path must not lose to pickling (>= 0.9x); on one core only pathology
fails.  What crosses the pipe (zero payload bytes, handle-sized
pickles, the >= 40x spec shrink), identity and ``/dev/shm`` hygiene
are pinned by ``tests/test_transport.py``, ``tests/test_parallel.py``
and ``tests/test_bitstream_v2.py``.
"""

from repro.codec.decoder import decode_bitstream
from repro.codec.encoder import encode_sequence
from repro.experiments.config import ExperimentConfig
from repro.experiments.rd_curves import run_rd_sweep
from repro.video.synthesis.sequences import make_sequence

from .conftest import best_of, cores

#: The acceptance workload (independent of REPRO_BENCHMARK_FRAMES).
TRANSPORT_FRAMES = 12


def _gate(label: str, plain_s: float, shm_s: float) -> None:
    speedup = plain_s / shm_s
    print(
        f"\n{label} --jobs 2: plain {plain_s * 1e3:.1f} ms vs shm {shm_s * 1e3:.1f} ms "
        f"-> {speedup:.2f}x ({cores()} cpu)"
    )
    if cores() >= 2:
        assert speedup >= 0.9, f"shm {label} lost to pickling: {speedup:.2f}x"
    else:
        assert speedup >= 0.3, f"shm {label} overhead exploded: {speedup:.2f}x"


def test_transport_decode_speedup():
    clip = make_sequence("foreman", frames=TRANSPORT_FRAMES, seed=0)
    bitstream = encode_sequence(clip, qp=16, estimator="tss", bitstream_version=2).bitstream
    plain = best_of(lambda: decode_bitstream(bitstream, jobs=2), 3)
    shm = best_of(lambda: decode_bitstream(bitstream, jobs=2, use_shm=True), 3)
    _gate("decode", plain, shm)


def test_sweep_speedup():
    config = ExperimentConfig(sequences=("foreman",), qps=(16,), frames=TRANSPORT_FRAMES)

    def sweep(use_shm: bool) -> None:
        run_rd_sweep(config, estimators=("tss",), jobs=2, use_shm=use_shm)

    plain = best_of(lambda: sweep(False), 3)
    shm = best_of(lambda: sweep(True), 3)
    _gate("rd sweep", plain, shm)
