"""Golden tests for the process-parallel orchestration layer.

The contract under test: every experiment harness produces
**byte-identical** output for any ``--jobs`` value — results merge in
job order and all job inputs derive from explicit seeds — and the job
pool's per-job seeding is a pure function of ``(base_seed, index)``.

Process-spawning tests are deliberately few and tiny (each new worker
set pays a spawn + import; consecutive calls share the warm set); the
cheap determinism properties run in-process.  ``TestWarmPool`` and
``TestPoolProtocol`` pin the warm set's lifetime and its reuse rule.
"""

from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np
import pytest

from repro.codec.encoder import Encoder
from repro.experiments.config import ExperimentConfig
from repro.experiments.fig4_characterization import run_fig4
from repro.experiments.rd_curves import (
    SweepCell,
    build_estimator,
    run_rd_sweep,
    sweep_jobs,
)
from repro.experiments.table1_complexity import run_table1
from repro.parallel import (
    EncodeJob,
    Fig4PairJob,
    JobSpec,
    ParseFrameJob,
    derive_job_seeds,
    run_jobs,
)
from repro.video.frame import FrameGeometry
from repro.video.synthesis.sequences import make_sequence

from .conftest import gop_encode_jobs, shm_segments

TINY = ExperimentConfig(
    sequences=("miss_america",), qps=(30, 16), fps_list=(30,), frames=4
)


@dataclass(frozen=True)
class SquareJob(JobSpec):
    """Trivial picklable job for pool-mechanics tests."""

    value: int

    def describe(self) -> str:
        return f"square {self.value}"

    def run(self, rng=None):
        return self.value * self.value


@dataclass(frozen=True)
class DrawJob(JobSpec):
    """Returns one random draw — exercises the per-job seeding."""

    index: int

    def describe(self) -> str:
        return f"draw {self.index}"

    def run(self, rng=None):
        # Both the provided generator and the reseeded global RNG must
        # be deterministic per (base_seed, job index).
        return (float(rng.random()), float(np.random.random()))


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        a = derive_job_seeds(7, 4)
        b = derive_job_seeds(7, 4)
        states_a = [s.generate_state(2).tolist() for s in a]
        states_b = [s.generate_state(2).tolist() for s in b]
        assert states_a == states_b
        assert len({tuple(s) for s in states_a}) == 4

    def test_prefix_stable(self):
        """Job i's seed does not depend on how many jobs follow it."""
        three = derive_job_seeds(0, 3)
        five = derive_job_seeds(0, 5)
        assert [s.generate_state(1)[0] for s in three] == [
            s.generate_state(1)[0] for s in five[:3]
        ]

    def test_empty_and_negative(self):
        assert derive_job_seeds(0, 0) == []
        with pytest.raises(ValueError):
            derive_job_seeds(0, -1)


class TestPoolMechanics:
    def test_results_in_job_order(self):
        jobs = [SquareJob(v) for v in (3, 1, 4, 1, 5)]
        assert run_jobs(jobs) == [9, 1, 16, 1, 25]

    def test_progress_in_process(self):
        messages = []
        run_jobs([SquareJob(2), SquareJob(3)], progress=messages.append)
        assert messages == ["square 2", "square 3"]

    def test_empty_job_list(self):
        assert run_jobs([], workers=4) == []

    def test_draws_deterministic_per_job(self):
        jobs = [DrawJob(i) for i in range(4)]
        forward = run_jobs(jobs, base_seed=11)
        assert run_jobs(jobs, base_seed=11) == forward
        assert len({draw for draw, _ in forward}) == 4  # independent streams
        assert run_jobs(jobs, base_seed=12) != forward

    def test_spawned_workers_match_in_process(self):
        """Placement/order independence: the same jobs (including ones
        consuming the global RNG) give the same results from spawned
        workers as from the serial fallback."""
        jobs = [SquareJob(v) for v in range(6)] + [DrawJob(i) for i in range(2)]
        serial = run_jobs(jobs, workers=1, base_seed=5)
        parallel = run_jobs(jobs, workers=2, base_seed=5)
        assert parallel == serial

    def test_caller_rng_stream_preserved(self):
        """In-process execution reseeds the global RNG per job but must
        hand the caller's stream back untouched."""
        np.random.seed(42)
        expected_next = np.random.RandomState(42).random_sample(3)
        assert np.random.random() == expected_next[0]
        run_jobs([DrawJob(0), DrawJob(1)], base_seed=0)
        assert np.random.random() == expected_next[1]

    def test_in_process_exception_propagates(self):
        @dataclass(frozen=True)
        class BoomJob(JobSpec):
            def describe(self) -> str:
                return "boom"

            def run(self, rng=None):
                raise RuntimeError("kaboom")

        with pytest.raises(RuntimeError, match="kaboom"):
            run_jobs([BoomJob()], workers=1)


@dataclass(frozen=True)
class FailJob(JobSpec):
    """Module-level (spawn-picklable) job that always raises."""

    def describe(self) -> str:
        return "fail"

    def run(self, rng=None):
        raise ValueError("injected failure")


class TestSharedMemoryTransport:
    """``use_shm=True`` moves GOP source planes as shared-memory handles;
    everything observable — results, ordering, progress, errors —
    matches the pickling path, and ``/dev/shm`` ends clean."""

    @pytest.fixture(scope="class")
    def clip(self):
        return make_sequence("miss_america", frames=4, seed=0)

    def test_shm_results_byte_identical_and_leak_free(self, clip):
        """GOP encode jobs — plane handles down, byte runs back —
        against spawned workers, compared to the in-process serial
        reference and the pickling path."""
        jobs = gop_encode_jobs(clip, i_period=2)
        serial = run_jobs(jobs, workers=1)
        assert run_jobs(jobs, workers=2, use_shm=True) == serial
        assert run_jobs(jobs, workers=2) == serial
        assert not shm_segments("repro-jobs")

    def test_use_shm_in_process_is_a_noop(self, clip):
        """workers=1 has no boundary to cross: the flag is ignored and
        no segment is ever created."""
        jobs = [SquareJob(3)] + gop_encode_jobs(clip, i_period=2)
        assert run_jobs(jobs, workers=1, use_shm=True) == run_jobs(jobs, workers=1)
        assert not shm_segments("repro-jobs")

    def test_pack_shm_defaults_to_identity(self):
        """Specs without array payloads ride the pickle stream unchanged
        (pack_shm is the base-class identity)."""
        for job in (SquareJob(5), ParseFrameJob(b"\x00\x01"), EncodeJob("miss_america", 30, "pbm", 16, TINY)):
            assert job.pack_shm(None) is job

    def test_progress_fires_once_per_completed_job(self):
        """The ProgressFn guarantee: exactly one call per job as it
        completes in a spawned worker."""
        jobs = [SquareJob(v) for v in range(5)]
        messages = []
        results = run_jobs(jobs, workers=2, progress=messages.append)
        assert results == [0, 1, 4, 9, 16]
        assert sorted(messages) == sorted(job.describe() for job in jobs)

    def test_shm_failure_path_leaves_dev_shm_clean(self, clip):
        """A failing job mid-run must not orphan the run's input slabs,
        whichever GOP jobs already completed."""
        jobs = gop_encode_jobs(clip, i_period=2) + [FailJob()]
        with pytest.raises(RuntimeError, match="injected failure"):
            run_jobs(jobs, workers=2, use_shm=True)
        assert not shm_segments("repro-jobs")


class TestJobSpecs:
    def test_specs_hashable(self):
        jobs = {
            EncodeJob("miss_america", 30, "pbm", 16, TINY),
            ParseFrameJob(b"\x00\x01"),
            Fig4PairJob(0, ((1, 0),), FrameGeometry(96, 80), 7, 3),
        }
        assert len(jobs) == 3

    def test_sweep_job_expansion_order(self):
        config = replace(TINY, sequences=("miss_america", "foreman"), fps_list=(30, 10))
        expanded = sweep_jobs(config, ("acbm", "pbm"))
        assert all(isinstance(j, EncodeJob) and j.config == config for j in expanded)
        assert [(j.sequence, j.fps, j.estimator, j.qp) for j in expanded] == [
            (name, fps, estimator, qp)
            for name in ("miss_america", "foreman")
            for fps in (30, 10)
            for estimator in ("acbm", "pbm")
            for qp in (30, 16)
        ]

    def test_borrowed_renders_rejects_mismatched_renders(self):
        from repro.parallel import borrowed_renders

        wrong_frames = make_sequence("miss_america", frames=5, seed=0)
        with pytest.raises(ValueError, match="5 frames"):
            with borrowed_renders({"miss_america": wrong_frames}, TINY):
                pass
        wrong_geometry = make_sequence(
            "miss_america", frames=TINY.frames, seed=0, geometry=FrameGeometry(96, 80)
        )
        with pytest.raises(ValueError, match="config wants"):
            with borrowed_renders({"miss_america": wrong_geometry}, TINY):
                pass

    def test_borrowed_renders_scoped_to_the_call(self):
        """A caller-held render serves only the borrowing call — it must
        not poison the process-global memo for later sweeps."""
        from repro.parallel import borrowed_renders, clear_render_cache, rendered_source

        clear_render_cache()
        lent = make_sequence(
            "miss_america", frames=TINY.frames, seed=99, geometry=TINY.geometry
        )
        with borrowed_renders({"miss_america": lent}, TINY):
            assert rendered_source("miss_america", TINY) is lent
        fresh = rendered_source("miss_america", TINY)
        assert fresh is not lent  # evicted on exit; re-rendered from config.seed

    def test_encode_job_matches_seed_serial_reference(self):
        """One cell computed through the job spec equals the seed's
        historical inline loop body."""
        job = EncodeJob("miss_america", 30, "pbm", 16, TINY)
        cell = job.run()
        source = make_sequence(
            "miss_america", frames=TINY.frames, seed=TINY.seed, geometry=TINY.geometry
        )
        clip = source.subsample(TINY.subsample_factor(30))
        encoder = Encoder(
            estimator=build_estimator("pbm", TINY), qp=16, keep_reconstruction=False
        )
        encode = encoder.encode(clip)
        stats = encode.search_stats
        reference = SweepCell(
            sequence="miss_america",
            fps=30,
            estimator="pbm",
            qp=16,
            rate_kbps=encode.rate_kbps,
            psnr_y=encode.mean_psnr_y,
            avg_positions=stats.avg_positions_per_block,
            full_search_fraction=stats.full_search_fraction,
            skipped_mbs=sum(f.skipped_mbs for f in encode.frames),
            mv_bits=sum(f.mv_bits for f in encode.frames),
            coefficient_bits=sum(f.coefficient_bits for f in encode.frames),
        )
        assert cell == reference


class TestHarnessEquivalence:
    """Parallel sweeps are byte-identical to serial ones."""

    def test_rd_sweep_jobs2_byte_identical(self):
        serial = run_rd_sweep(TINY, estimators=("pbm",), jobs=1)
        parallel = run_rd_sweep(TINY, estimators=("pbm",), jobs=2)
        assert parallel.cells == serial.cells
        assert parallel.as_text(30) == serial.as_text(30)

    def test_table1_jobs4_byte_identical(self):
        serial = run_table1(TINY, jobs=1)
        parallel = run_table1(TINY, jobs=4)
        assert parallel.as_text() == serial.as_text()
        assert parallel.columns == serial.columns

    def test_fig4_jobs2_identical(self):
        kwargs = dict(
            motions=((2, -1), (-3, 2), (5, 4)),
            geometry=FrameGeometry(96, 80),
            p=7,
            seed=3,
        )
        serial = run_fig4(jobs=1, **kwargs)
        parallel = run_fig4(jobs=2, **kwargs)
        assert parallel.observations == serial.observations

    def test_progress_fires_per_job_in_parallel(self):
        messages = []
        run_rd_sweep(TINY, estimators=("pbm",), jobs=2, progress=messages.append)
        assert sorted(messages) == [
            "miss_america@30fps pbm qp=16",
            "miss_america@30fps pbm qp=30",
        ]


@dataclass(frozen=True)
class BackendProbeJob(JobSpec):
    """Reports the kernel backend active inside the worker."""

    tag: int = 0

    def describe(self) -> str:
        return f"probe {self.tag}"

    def run(self, rng=None):
        from repro.kernels import get_backend

        return get_backend().name


class TestGopShmTransport:
    """``encode_sequence_parallel(..., use_shm=True)`` ships GOP source
    planes as shared-memory handles (``GopEncodeJob.pack_shm``) instead
    of pickled bytes — byte-identical output, clean ``/dev/shm``."""

    @pytest.fixture(scope="class")
    def clip(self):
        return make_sequence("miss_america", frames=6, seed=0)

    def test_gop_shm_byte_identical_and_leak_free(self, clip):
        from repro.parallel import encode_sequence_parallel

        serial = Encoder(
            estimator="tss", qp=20, i_period=3, bitstream_version=2,
            keep_reconstruction=False,
        ).encode(clip)
        shm = encode_sequence_parallel(
            clip, qp=20, estimator="tss", i_period=3, jobs=2, use_shm=True
        )
        assert shm.bitstream == serial.bitstream
        assert not shm_segments()

    def test_gop_shm_in_process_matches(self, clip):
        from repro.parallel import encode_sequence_parallel

        plain = encode_sequence_parallel(
            clip, qp=20, estimator="tss", i_period=3, jobs=1
        )
        shm = encode_sequence_parallel(
            clip, qp=20, estimator="tss", i_period=3, jobs=1, use_shm=True
        )
        assert shm.bitstream == plain.bitstream
        assert not shm_segments()

    def test_pack_shm_roundtrips_planes(self, clip):
        """pack_shm replaces pickled plane bytes with FrameHandles; the
        worker-side frame iteration reconstructs identical frames."""
        from repro.transport import FrameArena

        job = gop_encode_jobs(clip, i_period=3)[0]
        with FrameArena(name_prefix="repro-jobs-test") as arena:
            packed = job.pack_shm(arena)
            assert packed.planes is None
            assert len(packed.plane_handles) == 3
            for original, shipped in zip(job._frames(), packed._frames()):
                assert original == shipped
            assert packed.describe() == job.describe()
        assert not shm_segments()


@contextmanager
def active_backend(backend):
    """Run the body with ``backend`` (a registry name or an instance)
    as the parent's active kernel backend, then restore the previous
    one."""
    from repro.kernels import get_backend, set_backend

    before = get_backend()
    set_backend(backend)
    try:
        yield
    finally:
        set_backend(before)


class TestBackendThreading:
    """The parent's active kernel backend holds on both run_jobs paths."""

    def test_backend_pinned_in_process_and_restored(self):
        from repro.kernels import get_backend

        with active_backend("numpy"):
            before = get_backend()
            assert run_jobs([BackendProbeJob(1)], workers=1) == ["numpy"]
            assert get_backend() is before

    def test_backend_ships_to_spawned_workers(self):
        with active_backend("numpy"):
            names = run_jobs([BackendProbeJob(1), BackendProbeJob(2)], workers=2)
        assert names == ["numpy", "numpy"]


@dataclass(frozen=True)
class PidJob(JobSpec):
    """Reports which process ran it: ``(tag, pid)``."""

    tag: int
    sleep_s: float = 0.0

    def describe(self) -> str:
        return f"pid {self.tag}"

    def run(self, rng=None):
        import os
        import time

        time.sleep(self.sleep_s)
        return self.tag, os.getpid()


@dataclass(frozen=True)
class CrashJob(JobSpec):
    """Kills its worker without a reply."""

    def describe(self) -> str:
        return "crash"

    def run(self, rng=None):
        import os

        os._exit(1)


class LockedError(Exception):
    """Carries a lock, so it cannot be pickled."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        import threading

        self.lock = threading.Lock()


class TwoArgError(Exception):
    """Pickles, but its ``args`` cannot rebuild it."""

    def __init__(self, what: str, why: str) -> None:
        super().__init__(f"{what} because {why}")


@dataclass(frozen=True)
class RaiseJob(JobSpec):
    """Raises an exception that cannot cross the pipe as itself."""

    kind: str

    def describe(self) -> str:
        return f"raise {self.kind}"

    def run(self, rng=None):
        if self.kind == "locked":
            raise LockedError("locked failure")
        raise TwoArgError("two-arg failure", "args mismatch")


@dataclass(frozen=True)
class AttachedProbeJob(JobSpec):
    """Reports ``(pid, shared-memory segments this worker keeps mapped)``."""

    tag: int = 0

    def describe(self) -> str:
        return f"attached {self.tag}"

    def run(self, rng=None):
        import os

        from repro.transport.arena import _ATTACHED

        return os.getpid(), len(_ATTACHED)


def _worker_pids(workers=2, count=2):
    results = run_jobs([PidJob(i) for i in range(count)], workers=workers)
    assert [tag for tag, _ in results] == list(range(count))
    return {pid for _, pid in results}


def _wait_until(predicate, timeout=20.0):
    import time

    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


def _pid_alive(pid: int) -> bool:
    import os

    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestWarmPool:
    """Spawned workers start once, serve later calls and close when idle."""

    def test_back_to_back_calls_reuse_workers(self):
        first = _worker_pids()
        assert len(first) == 2  # one job per idle worker before waiting
        assert _worker_pids() == first

    def test_idle_workers_close(self, monkeypatch):
        import multiprocessing

        from repro.parallel import pool

        monkeypatch.setattr(pool, "IDLE_CLOSE_SECONDS", 0.2)
        pids = _worker_pids()
        assert _wait_until(lambda: not multiprocessing.active_children())
        assert not any(_pid_alive(pid) for pid in pids)

    def test_other_backend_gets_new_workers(self):
        """The worker set is keyed by the backend name it ships: a named
        backend and a nameless instance (the ``numba-sim`` test backend,
        whose workers re-resolve from their environment) never share
        workers."""
        from repro.kernels.numba_backend import make_backend

        with active_backend("numpy"):
            numpy_pids = _worker_pids()
        with active_backend(make_backend(jit=False)):
            sim_pids = _worker_pids()
        assert not numpy_pids & sim_pids

    def test_shm_jobs_leave_no_mapping_in_warm_workers(self):
        """Workers drop their mappings of a run's input segments once
        the job is done; the parent unlinks those segments, so a kept
        mapping would only pin their memory."""
        jobs = gop_encode_jobs(make_sequence("miss_america", frames=4, seed=0), i_period=2)
        pids = _worker_pids()
        assert run_jobs(jobs, workers=2, use_shm=True) == run_jobs(jobs, workers=1)
        probes = run_jobs([AttachedProbeJob(0), AttachedProbeJob(1)], workers=2)
        assert {pid for pid, _ in probes} == pids
        assert [mapped for _, mapped in probes] == [0, 0]
        assert not shm_segments()


class TestPoolProtocol:
    """A worker set returns to the cache only when every reply it owes
    was read, so no later call can read a stale result."""

    def test_dead_worker_fails_the_run_and_the_pool_is_rebuilt(self):
        jobs = [SquareJob(1), CrashJob(), SquareJob(3), SquareJob(4)]
        with pytest.raises(RuntimeError, match=r"parallel job failed \(crash\)"):
            run_jobs(jobs, workers=2)
        assert run_jobs([SquareJob(v) for v in range(4)], workers=2) == [0, 1, 4, 9]

    def test_raising_progress_propagates_and_leaves_no_stale_reply(self):
        def progress(_line):
            raise KeyError("progress broke")

        with pytest.raises(KeyError, match="progress broke"):
            run_jobs([SquareJob(v) for v in range(6)], workers=2, progress=progress)
        assert run_jobs([SquareJob(10), SquareJob(11)], workers=2) == [100, 121]

    @pytest.mark.parametrize(
        "kind, message",
        [("locked", "locked failure"), ("two-arg", "two-arg failure because args mismatch")],
    )
    def test_exception_that_cannot_cross_keeps_its_message(self, kind, message):
        with pytest.raises(RuntimeError, match=rf"parallel job failed \(raise {kind}\): {message}"):
            run_jobs([SquareJob(2), RaiseJob(kind)], workers=2)
        assert run_jobs([SquareJob(5), SquareJob(6)], workers=2) == [25, 36]

    def test_busy_pool_is_not_shared(self):
        """A call made while the warm set is checked out — here from the
        outer run's progress callback — runs on workers of its own."""
        inner: list = []

        def progress(_line):
            if not inner:
                inner.append(_worker_pids())

        warm = _worker_pids()
        outer = run_jobs([PidJob(i) for i in range(4)], workers=2, progress=progress)
        assert [tag for tag, _ in outer] == [0, 1, 2, 3]
        assert {pid for _, pid in outer} == warm
        assert inner and not inner[0] & warm

    def test_concurrent_callers_get_their_own_results(self):
        import threading

        barrier = threading.Barrier(2)
        results: dict = {}

        def call(base):
            barrier.wait()
            jobs = [PidJob(base + i, sleep_s=0.1) for i in range(4)]
            results[base] = [tag for tag, _ in run_jobs(jobs, workers=2)]

        threads = [threading.Thread(target=call, args=(base,)) for base in (0, 100)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert results == {0: [0, 1, 2, 3], 100: [100, 101, 102, 103]}


def test_resource_tracker_stops_after_a_parallel_run():
    """Stopping multiprocessing's resource tracker right after a 2-worker
    shm run, before interpreter exit (what ``perfbench/run.py`` does),
    must neither hang on warm workers holding the tracker's descriptor
    nor report leaked semaphores or segments."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "from multiprocessing import resource_tracker\n"
        "from repro.parallel import encode_sequence_parallel\n"
        "from repro.video.synthesis.sequences import make_sequence\n"
        "clip = make_sequence('miss_america', frames=4, seed=0)\n"
        "kwargs = dict(qp=20, estimator='tss', i_period=2)\n"
        "shm = encode_sequence_parallel(clip, jobs=2, use_shm=True, **kwargs)\n"
        "assert shm.bitstream == encode_sequence_parallel(clip, jobs=1, **kwargs).bitstream\n"
        "resource_tracker._resource_tracker._stop()\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    assert "leaked" not in done.stderr
