"""Benchmark configuration.

Two kinds of module live here, both opt-in (``pytest benchmarks/...``;
tier-1 collects ``tests/`` only):

* **paper-claim benches** (``test_bench_{fig4,fig5,fig6,table1,
  ablation}``) regenerate one of the paper's tables/figures, print its
  rows/series and assert the paper's conclusions.  Workload size is the
  ``REPRO_BENCHMARK_FRAMES`` environment variable (default 9 source
  frames at 30 fps, so the 10 fps variants have 3 frames); raise it —
  e.g. ``REPRO_BENCHMARK_FRAMES=21`` — for smoother curves;
* **same-machine speed gates** (the other modules) time a fast path
  against the path it replaced, in the same process, with
  :func:`best_of`, and assert a ratio floor.  Nothing is written to
  disk; the numbers print with ``-s``.  Correctness of every fast path
  is pinned in ``tests/``; a gate re-checks identity only where a wrong
  answer could pass for a fast one.  The end-to-end benchmark with
  bounds is ``perfbench/``.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.video.synthesis.sequences import make_sequence


def bench_frames() -> int:
    return int(os.environ.get("REPRO_BENCHMARK_FRAMES", "9"))


def best_of(fn, rounds: int) -> float:
    """Fastest wall-clock seconds of ``rounds`` calls of ``fn`` — the
    one timer every speed gate uses (the minimum is the least noisy
    estimate on a shared machine)."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def cores() -> int:
    """Multi-worker speed gates assert their full floor only when
    ``cores() >= 2``; on one core they only guard against pathology."""
    return os.cpu_count() or 1


@pytest.fixture()
def numba_backend():
    """Pin the compiled numba kernel backend for one benchmark.

    Skips — with a visible reason — when numba is not importable, so a
    pure-NumPy environment shows the compiled benchmarks as skipped
    rather than silently absent.
    """
    from repro.kernels import numba_available, reset_backend, set_backend

    if not numba_available():
        pytest.skip(
            "numba not installed — compiled-backend benchmark skipped "
            "(pip install -r requirements-numba.txt to run it)"
        )
    backend = set_backend("numba")
    try:
        yield backend
    finally:
        reset_backend()


@pytest.fixture(scope="session")
def sequence_cache():
    """30 fps source renders shared across all benchmarks."""
    cache = {}
    frames = bench_frames()
    for name in ("miss_america", "table", "carphone", "foreman"):
        cache[name] = make_sequence(name, frames=frames, seed=0)
    return cache
