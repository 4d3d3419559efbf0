"""Microbenchmarks of the hot kernels (not a paper table).

Timed with pytest-benchmark's normal statistics (multiple rounds) so
regressions in the vectorized SAD map, the frame-level engine kernels,
the batched DCT or the encoder inner loop are visible.

The frame-engine benchmarks also append their timings (and the
batch-vs-per-block speedup) to ``BENCH_kernels.json`` at the repo root
— regardless of the directory pytest was invoked from — so CI keeps a
machine-readable record for the regression gate
(``benchmarks/check_regression.py``).
"""

import time

import numpy as np
import pytest

from repro.codec.dct import forward_dct, inverse_dct
from repro.experiments.decode_bench import write_records
from repro.me.engine import ReferencePlane, frame_sad_surfaces
from repro.me.estimator import BlockContext
from repro.me.full_search import FullSearchEstimator
from repro.me.metrics import sad_map
from repro.me.types import MotionField
from repro.reference import estimate_motion

from .conftest import bench_output_path

#: Collected by the frame-engine benchmarks, flushed to
#: BENCH_kernels.json when the module finishes.
_RECORDS: dict[str, float] = {}


@pytest.fixture(scope="module", autouse=True)
def _write_kernel_records():
    yield
    if _RECORDS:
        write_records(_RECORDS, bench_output_path("BENCH_kernels.json"))


def _cif_planes(seed: int = 0):
    rng = np.random.default_rng(seed)
    current = rng.integers(0, 256, (288, 352), dtype=np.uint8)
    reference = np.clip(
        current.astype(np.int16) + rng.integers(-6, 7, current.shape), 0, 255
    ).astype(np.uint8)
    return current, reference


def _best_of(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def planes():
    rng = np.random.default_rng(0)
    current = rng.integers(0, 256, (144, 176), dtype=np.uint8)
    reference = np.clip(
        current.astype(np.int16) + rng.integers(-6, 7, current.shape), 0, 255
    ).astype(np.uint8)
    return current, reference


def test_sad_map_full_window(benchmark, planes):
    """One macroblock against a full ±15 window: the FSBM inner kernel
    (961 SADs of 256 pixels each)."""
    current, reference = planes
    block = current[64:80, 80:96]
    window = reference[49:111, 65:127]
    result = benchmark(sad_map, block, window)
    assert result.shape == (47, 47)


def test_fsbm_block_search(benchmark, planes):
    """Full FSBM block decision including half-pel refinement."""
    current, reference = planes
    est = FullSearchEstimator(p=15)
    ctx = BlockContext(
        current, reference, 4, 5, 16, MotionField(9, 11), None, 16, ReferencePlane(reference)
    )
    result = benchmark(est.search_block, ctx)
    assert result.positions == 969


def test_frame_sad_surfaces_kernel(benchmark, planes):
    """The engine's whole-frame SAD-surface kernel on one QCIF frame:
    every macroblock's full ±15 surface in one batched pass."""
    current, reference = planes
    result = benchmark(frame_sad_surfaces, current, reference, 16, 15)
    assert result.surfaces.shape == (9, 11, 31, 31)
    _RECORDS["frame_sad_surfaces_qcif_ms"] = benchmark.stats["min"] * 1000.0


def test_fsbm_frame_estimate_batched(benchmark, planes):
    """Full FSBM frame estimation through the engine's estimate_frame
    (surfaces + vectorized minima + batched half-pel refinement)."""
    current, reference = planes
    est = FullSearchEstimator(p=15)
    field, stats = benchmark(est.estimate, current, reference)
    assert stats.blocks == 99
    _RECORDS["fsbm_estimate_batched_qcif_ms"] = benchmark.stats["min"] * 1000.0


def test_fsbm_frame_estimate_per_block(benchmark, planes):
    """Per-block FSBM through the ME oracle
    (:func:`repro.reference.estimate_motion`) — the baseline the
    batched path is measured against."""
    current, reference = planes
    est = FullSearchEstimator(p=15)
    field, stats, _ = benchmark.pedantic(
        estimate_motion, args=(est, current, reference), rounds=3, iterations=1
    )
    assert stats.blocks == 99
    _RECORDS["fsbm_estimate_per_block_qcif_ms"] = benchmark.stats["min"] * 1000.0


def test_fsbm_frame_speedup_batch_vs_per_block():
    """Golden perf claim: the batched frame path must beat the per-block
    ME oracle by a wide margin (CIF, p=15, half-pel on;
    identical outputs are proven in tests/test_engine.py).

    The measured ratio lands around 4-5x on a single-core container
    (the per-candidate arithmetic is identical — the win is batching).
    The recorded BENCH_kernels.json number is the real signal; the
    assertion is only a regression backstop with enough margin that a
    noisy shared CI runner can't flake the suite.
    """
    current, reference = _cif_planes()
    est = FullSearchEstimator(p=15)
    t_batched = _best_of(lambda: est.estimate(current, reference), rounds=5)
    t_per_block = _best_of(lambda: estimate_motion(est, current, reference), rounds=3)
    speedup = t_per_block / t_batched
    _RECORDS["fsbm_estimate_per_block_cif_ms"] = t_per_block * 1000.0
    _RECORDS["fsbm_estimate_batched_cif_ms"] = t_batched * 1000.0
    _RECORDS["fsbm_frame_speedup_cif"] = speedup
    print(
        f"\nFSBM CIF frame estimation: per-block {t_per_block * 1000.0:.1f} ms, "
        f"batched {t_batched * 1000.0:.1f} ms -> {speedup:.2f}x"
    )
    assert speedup >= 2.0, f"batched frame path regressed: only {speedup:.2f}x"


def test_batched_dct_round_trip(benchmark):
    """DCT+IDCT of a whole QCIF frame's worth of blocks (594 blocks:
    the per-frame transform load of the encoder)."""
    rng = np.random.default_rng(1)
    blocks = rng.normal(0, 30, (594, 8, 8))

    def run():
        return inverse_dct(forward_dct(blocks))

    out = benchmark(run)
    np.testing.assert_allclose(out, blocks, atol=1e-8)


def test_encoder_frame_throughput(benchmark, sequence_cache):
    """P-frame encode throughput with the cheap estimator (codec cost
    dominates here, not the search)."""
    from repro.codec.encoder import Encoder

    seq = sequence_cache["miss_america"][:3]
    encoder = Encoder(estimator="pbm", qp=16, keep_reconstruction=False)
    result = benchmark.pedantic(encoder.encode, args=(seq,), rounds=3, iterations=1)
    assert result.total_bits > 0
