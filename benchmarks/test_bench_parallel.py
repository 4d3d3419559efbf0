"""Orchestration-layer speed gates: serial vs 2-worker RD sweep, and
the pattern-search lockstep vs the per-block raster walk.

The sweep speedup is machine-shaped: on a multi-core machine two
workers should land well above 1x; on one core it sits *below* 1x
(spawn + import overhead with no parallel hardware underneath), so the
full floor only applies when the machine has >= 2 cores.
"""

import time

import pytest

from repro import reference
from repro.experiments.config import ExperimentConfig
from repro.experiments.rd_curves import run_rd_sweep
from repro.me.estimator import create_estimator
from repro.parallel import clear_render_cache

from .conftest import bench_frames, best_of, cores


@pytest.fixture(scope="module")
def sweep_config():
    return ExperimentConfig(
        sequences=("miss_america", "foreman"),
        qps=(30, 16),
        fps_list=(30,),
        frames=bench_frames(),
    )


def test_parallel_sweep_speedup_and_identity(sweep_config):
    """The tentpole claim: a 2-worker sweep is byte-identical to the
    serial one, and faster whenever the machine has >= 2 cores."""
    # Like-for-like legs: neither side starts with pre-rendered
    # sources (the CLI's situation), so the serial leg pays its two
    # renders in-process and each worker pays its own — clear the
    # process memo in case an earlier bench in this session filled it.
    # use_shm is pinned off so this bench keeps measuring the historical
    # pickling transport ("auto" would switch the jobs=2 leg to shm —
    # that path is timed separately in test_bench_transport.py).
    clear_render_cache()
    started = time.perf_counter()
    serial = run_rd_sweep(sweep_config, estimators=("acbm",), jobs=1, use_shm=False)
    serial_s = time.perf_counter() - started
    started = time.perf_counter()
    parallel = run_rd_sweep(sweep_config, estimators=("acbm",), jobs=2, use_shm=False)
    parallel_s = time.perf_counter() - started

    assert parallel.cells == serial.cells
    assert parallel.as_text(30) == serial.as_text(30)

    speedup = serial_s / parallel_s
    print(
        f"\nparallel sweep: serial {serial_s:.2f}s, jobs=2 {parallel_s:.2f}s "
        f"-> {speedup:.2f}x on {cores()} core(s)"
    )
    if cores() >= 2:
        # Two workers on >= 2 cores must recoup their spawn cost.  The
        # floor sits far below the expected ~1.4-1.7x because container
        # timings fluctuate ±30-40%.
        assert speedup >= 1.05, f"2-worker sweep regressed: only {speedup:.2f}x"
    else:
        # Single core: parallel cannot win; just guard against the
        # dispatch overhead exploding.
        assert speedup >= 0.3, f"pool overhead exploded: {speedup:.2f}x of serial"


def test_lockstep_fast_search_speedup(sequence_cache):
    """The pattern-search lockstep must stay far ahead of the per-block
    raster walk it replaces: ``ntss`` ``estimate`` against the oracle
    (:func:`repro.reference.estimate_motion`) on the same frame pairs
    (bit-identity is pinned by tests/test_pattern_lockstep.py)."""
    clip = sequence_cache["foreman"]
    pairs = [(clip[i].y, clip[i + 1].y) for i in range(len(clip) - 1)]
    est = create_estimator("ntss", p=15)

    def run_all(search) -> None:
        for ref, cur in pairs:
            search(cur, ref)

    lockstep_s = best_of(lambda: run_all(est.estimate), 3)
    oracle_s = best_of(
        lambda: run_all(lambda cur, ref: reference.estimate_motion(est, cur, ref)), 3
    )
    speedup = oracle_s / lockstep_s
    print(
        f"\npattern lockstep (ntss, {len(pairs)} frames): lockstep {lockstep_s * 1000:.1f} ms, "
        f"raster walk {oracle_s * 1000:.1f} ms -> {speedup:.2f}x"
    )
    # Measured ~6-8x; the floor leaves headroom for ±30-40% timing noise.
    assert speedup >= 3.6, f"pattern lockstep lost its lead: {speedup:.2f}x"
