"""Golden tests for the process-parallel orchestration layer.

The contract under test: every experiment harness produces
**byte-identical** output for any ``--jobs`` value — results merge in
job order and all job inputs derive from explicit seeds — and the job
pool's per-job seeding is a pure function of ``(base_seed, index)``.

Process-spawning tests are deliberately few and tiny (each worker pays
a spawn + import); the cheap determinism properties run in-process.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.codec.decoder import FrameIndex
from repro.codec.encoder import Encoder, encode_sequence
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
    GopEncodeJob,
    JobSpec,
    ParseFrameJob,
    SweepJob,
    derive_job_seeds,
    run_jobs,
)
from repro.video.frame import FrameGeometry
from repro.video.synthesis.sequences import make_sequence

from .conftest import shm_segments

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
    """``use_shm=True`` moves payloads and results as shared-memory
    handles; everything observable — results, ordering, progress,
    errors — matches the pickling path, and ``/dev/shm`` ends clean."""

    @pytest.fixture(scope="class")
    def clip(self):
        return make_sequence("miss_america", frames=3, seed=0)

    @pytest.fixture(scope="class")
    def v2(self, clip):
        return encode_sequence(clip, qp=20, estimator="tss", bitstream_version=2)

    def test_shm_results_byte_identical_and_leak_free(self, clip, v2):
        """Parse jobs and a GOP encode job — payload handles down, result
        exports back — against spawned workers, compared to the
        in-process serial reference."""
        index = FrameIndex.scan(v2.bitstream)
        gop = GopEncodeJob(
            width=clip.geometry.width,
            height=clip.geometry.height,
            start=0,
            planes=tuple((f.y.tobytes(), f.cb.tobytes(), f.cr.tobytes(), f.index) for f in clip),
            estimator="tss",
            qp=20,
            i_period=len(clip),
        )
        jobs = [
            ParseFrameJob(index.payload(v2.bitstream, i)) for i in range(len(index))
        ] + [gop]
        serial = run_jobs(jobs, workers=1)
        shm = run_jobs(jobs, workers=2, use_shm=True)
        assert shm == serial
        assert not shm_segments("repro-jobs") + shm_segments("repro-result")

    def test_use_shm_in_process_is_a_noop(self, v2):
        """workers=1 has no boundary to cross: the flag is ignored and
        no segment is ever created."""
        jobs = [SquareJob(3), ParseFrameJob(FrameIndex.scan(v2.bitstream).payload(v2.bitstream, 0))]
        assert run_jobs(jobs, workers=1, use_shm=True) == run_jobs(jobs, workers=1)
        assert not shm_segments("repro-jobs") + shm_segments("repro-result")

    def test_pack_shm_defaults_to_identity(self):
        """Specs without array payloads ride the pickle stream unchanged
        (pack_shm is the base-class identity)."""
        job = SquareJob(5)
        assert job.pack_shm(store=None) is job

    def test_progress_fires_once_per_completed_job(self):
        """The ProgressFn guarantee: exactly one call per job as it
        completes in a spawned worker."""
        jobs = [SquareJob(v) for v in range(5)]
        messages = []
        results = run_jobs(jobs, workers=2, progress=messages.append)
        assert results == [0, 1, 4, 9, 16]
        assert sorted(messages) == sorted(job.describe() for job in jobs)

    def test_shm_failure_path_leaves_dev_shm_clean(self, v2):
        """A failing job mid-run must not orphan input slabs or result
        exports from jobs that already completed."""
        index = FrameIndex.scan(v2.bitstream)
        jobs = [
            ParseFrameJob(index.payload(v2.bitstream, i)) for i in range(len(index))
        ] + [FailJob()]
        with pytest.raises(RuntimeError, match="injected failure"):
            run_jobs(jobs, workers=2, use_shm=True)
        assert not shm_segments("repro-jobs") + shm_segments("repro-result")


class TestJobSpecs:
    def test_specs_hashable(self):
        jobs = {
            EncodeJob("miss_america", 30, "pbm", 16, TINY),
            ParseFrameJob(b"\x00\x01"),
            Fig4PairJob(0, ((1, 0),), FrameGeometry(96, 80), 7, 16, 3),
            SweepJob(TINY, ("pbm",)),
        }
        assert len(jobs) == 4

    def test_sweep_job_expansion_order(self):
        expanded = SweepJob(TINY, ("acbm", "pbm")).expand()
        assert [(j.estimator, j.qp) for j in expanded] == [
            ("acbm", 30), ("acbm", 16), ("pbm", 30), ("pbm", 16),
        ]
        assert sweep_jobs(TINY, ("acbm", "pbm")) == expanded

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
        from repro.parallel.jobs import GopEncodeJob
        from repro.transport import FrameArena, FrameStore

        frames = list(clip)[0:3]
        geometry = clip.geometry
        job = GopEncodeJob(
            width=geometry.width,
            height=geometry.height,
            start=0,
            planes=tuple(
                (f.y.tobytes(), f.cb.tobytes(), f.cr.tobytes(), f.index) for f in frames
            ),
            estimator="tss",
            qp=20,
            i_period=3,
            n_ref_frames=1,
            bitstream_version=2,
            estimator_kwargs=(),
        )
        with FrameArena(name_prefix="repro-jobs-test") as arena:
            packed = job.pack_shm(FrameStore(arena))
            assert packed.planes is None
            assert len(packed.plane_handles) == 3
            for original, shipped in zip(job._frames(), packed._frames()):
                assert original == shipped
            assert packed.describe() == job.describe()
        assert not shm_segments()


class TestExperimentShmTransport:
    """The experiment fan-out specs — ``EncodeJob``, ``SweepJob``,
    ``Fig4PairJob`` — travel zero-copy: sources render once in the
    parent through a :class:`FrameStore`, workers read handles, results
    are identical and ``/dev/shm`` ends clean on every path."""

    FIG4_KWARGS = dict(
        motions=((2, -1), (-3, 2), (5, 4)),
        geometry=FrameGeometry(96, 80),
        p=7,
        seed=3,
    )

    def test_encode_job_pack_shm_runs_identically(self):
        from repro.transport import FrameArena, FrameStore

        job = EncodeJob("miss_america", 30, "pbm", 16, TINY)
        plain = job.run()
        with FrameArena(name_prefix="repro-jobs-test") as arena:
            store = FrameStore(arena)
            packed = job.pack_shm(store)
            assert packed.source is not None
            assert packed.run() == plain
            # Re-packing an already-packed spec is the identity.
            assert packed.pack_shm(store) is packed
        assert not shm_segments()

    def test_store_renders_each_distinct_source_once(self):
        from repro.transport import FrameArena, FrameStore

        with FrameArena(name_prefix="repro-jobs-test") as arena:
            store = FrameStore(arena)
            cells = SweepJob(TINY, ("pbm", "acbm")).expand()
            packed = [cell.pack_shm(store) for cell in cells]
            assert store.distinct_sources == 1
            # Every cell of the one clip carries the *same* handles —
            # one placed copy, no duplicate slabs.
            assert all(spec.source is packed[0].source for spec in packed)
        assert not shm_segments()

    def test_sweep_job_pack_shm_packs_cells(self):
        from repro.transport import FrameArena, FrameStore

        job = SweepJob(TINY, ("pbm",))
        plain = job.run()
        with FrameArena(name_prefix="repro-jobs-test") as arena:
            packed = job.pack_shm(FrameStore(arena))
            assert packed.cells is not None
            assert all(cell.source is not None for cell in packed.cells)
            assert packed.expand() == packed.cells
            assert packed.run() == plain
        assert not shm_segments()

    def test_fig4_pair_job_pack_shm_runs_identically(self):
        from repro.transport import FrameArena, FrameStore

        job = Fig4PairJob(pair_index=1, **self.FIG4_KWARGS)
        plain = job.run()
        with FrameArena(name_prefix="repro-jobs-test") as arena:
            packed = job.pack_shm(FrameStore(arena))
            assert packed.pair is not None
            observations = packed.run()
            assert observations == plain
            # The worker only holds two frames, yet the observations
            # must still carry the rig-wide pair index.
            assert all(obs.frame_pair == 1 for obs in observations)
        assert not shm_segments()

    def test_use_shm_auto_resolution(self):
        from repro.parallel.pool import _resolve_use_shm

        encode_jobs = [EncodeJob("miss_america", 30, "pbm", qp, TINY) for qp in (30, 16)]
        plain_jobs = [SquareJob(1), SquareJob(2)]
        assert _resolve_use_shm("auto", encode_jobs, workers=2) is True
        assert _resolve_use_shm("auto", encode_jobs, workers=1) is False
        assert _resolve_use_shm("auto", encode_jobs[:1], workers=2) is False
        assert _resolve_use_shm("auto", plain_jobs, workers=2) is False
        assert _resolve_use_shm(True, plain_jobs, workers=1) is True
        with pytest.raises(ValueError, match="use_shm"):
            run_jobs(plain_jobs, workers=1, use_shm="maybe")

    def test_experiment_jobs_spawned_shm_identical_and_leak_free(self):
        jobs = list(SweepJob(TINY, ("pbm",)).expand()) + [
            Fig4PairJob(pair_index=0, **self.FIG4_KWARGS)
        ]
        serial = run_jobs(jobs, workers=1)
        shm = run_jobs(jobs, workers=2, use_shm=True)
        assert shm == serial
        assert not shm_segments()

    def test_experiment_shm_failure_path_leaves_dev_shm_clean(self):
        jobs = list(SweepJob(TINY, ("pbm",)).expand()) + [FailJob()]
        with pytest.raises(RuntimeError, match="injected failure"):
            run_jobs(jobs, workers=2, use_shm=True)
        assert not shm_segments()


class TestBackendThreading:
    """The kernel-backend choice survives both run_jobs paths."""

    def test_backend_pinned_in_process_and_restored(self):
        from repro.kernels import get_backend

        before = get_backend()
        assert run_jobs([BackendProbeJob(1)], workers=1, backend="numpy") == ["numpy"]
        assert get_backend() is before

    def test_backend_ships_to_spawned_workers(self):
        names = run_jobs(
            [BackendProbeJob(1), BackendProbeJob(2)], workers=2, backend="numpy"
        )
        assert names == ["numpy", "numpy"]
