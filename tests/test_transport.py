"""Golden tests for the shared-memory transport layer (:mod:`repro.transport`).

The contracts under test:

* **arena lifetime** — :class:`FrameArena` hands out handles whose
  segments live exactly as long as the refcounts (sealed slabs) or the
  arena (open slabs) say, ``close()`` is idempotent and total, and no
  ``/dev/shm`` entry survives a ``with`` block — whatever was or
  wasn't released;
* **ownership transfer** — :func:`export` / :func:`materialize` move a
  value through one one-shot segment and leave ``/dev/shm`` clean;
* **typed sharing** — ``Frame``, whole ``Sequence`` renders
  (``SharedSequence``), bare arrays and ``ParsedPicture`` survive the
  handle round trip bit-identically, scalar skeletons pass through
  untouched, and the accounting (:func:`payload_bytes`,
  :func:`handle_count`) matches what actually moved — including nested
  Fig. 4 frame-pair tuples and sweep source lists;
* **render-once store** — :class:`FrameStore` places each distinct
  experiment source a single time and hands every caller the same
  handles.

Spawn-side attach-on-first-use is exercised end to end by the
``use_shm`` pool tests in ``tests/test_parallel.py`` — these tests stay
in-process.
"""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec.decoder import FrameIndex, parse_payload
from repro.codec.encoder import encode_sequence
from repro.transport import (
    FrameArena,
    FrameHandle,
    FrameStore,
    SharedSequence,
    attach_array,
    detach_segment,
    export,
    export_segment,
    handle_count,
    materialize,
    payload_bytes,
    read_array,
    share,
    unlink_segment,
)
from repro.video.frame import Frame, FrameGeometry
from repro.video.sequence import Sequence

from .conftest import shm_segments

SMALL = FrameGeometry(32, 32)


def random_frame(seed=0, geometry=SMALL, index=0) -> Frame:
    rng = np.random.default_rng(seed)
    ch, cw = geometry.chroma_height, geometry.chroma_width
    return Frame(
        rng.integers(0, 256, (geometry.height, geometry.width), dtype=np.uint8),
        rng.integers(0, 256, (ch, cw), dtype=np.uint8),
        rng.integers(0, 256, (ch, cw), dtype=np.uint8),
        index=index,
    )


@pytest.fixture(scope="module")
def parsed_pictures():
    """One intra and one inter ParsedPicture off a real v2 stream."""
    clip = Sequence([random_frame(seed=i, index=i) for i in range(3)], fps=30, name="tx")
    encode = encode_sequence(clip, qp=18, estimator="tss", bitstream_version=2)
    index = FrameIndex.scan(encode.bitstream)
    return [parse_payload(index.payload(encode.bitstream, i)) for i in range(len(index))]


# -- handles ---------------------------------------------------------------


class TestFrameHandle:
    def test_nbytes(self):
        assert FrameHandle("seg", 0, (4, 5), "<i2").nbytes == 40
        assert FrameHandle("seg", 64, (), "<f8").nbytes == 8
        assert FrameHandle("seg", 0, (0, 3), "|u1").nbytes == 0

    def test_pickle_is_small_and_payload_independent(self):
        import pickle

        tiny = FrameHandle("repro-x", 0, (2, 2), "|u1")
        huge = FrameHandle("repro-x", 0, (4096, 4096), "<f8")
        # A few bytes of integer-width variance, never payload bytes.
        assert len(pickle.dumps(huge)) <= len(pickle.dumps(tiny)) + 8
        assert len(pickle.dumps(huge)) < 200


# -- the arena -------------------------------------------------------------


class TestFrameArena:
    def test_place_and_read_round_trip(self):
        arr = np.arange(24, dtype=np.int16).reshape(4, 6)
        with FrameArena(name_prefix="repro-t-rt") as arena:
            handle = arena.place(arr)
            out = read_array(handle)
            assert out.dtype == arr.dtype and out.shape == arr.shape
            np.testing.assert_array_equal(out, arr)
        assert not shm_segments("repro-t-rt")

    def test_bytes_place_as_uint8(self):
        with FrameArena(name_prefix="repro-t-bytes") as arena:
            handle = arena.place(b"\x00\x01\xfe\xff")
            assert handle.shape == (4,) and np.dtype(handle.dtype) == np.uint8
            assert read_array(handle).tobytes() == b"\x00\x01\xfe\xff"

    def test_placements_are_aligned(self):
        with FrameArena(name_prefix="repro-t-align") as arena:
            offsets = [arena.place(np.zeros(13, dtype=np.uint8)).offset for _ in range(5)]
        assert all(offset % 64 == 0 for offset in offsets)
        assert len(set(offsets)) == 5  # bump allocation, no overlap

    def test_oversized_array_gets_dedicated_segment(self):
        big = np.arange(4096, dtype=np.uint8)
        with FrameArena(slab_bytes=1024, name_prefix="repro-t-big") as arena:
            small = arena.place(np.zeros(8, dtype=np.uint8))
            handle = arena.place(big)
            assert handle.segment != small.segment
            np.testing.assert_array_equal(read_array(handle), big)
        assert not shm_segments("repro-t-big")

    def test_release_refcounts_sealed_segments(self):
        """Filling a slab seals it; the sealed slab dies with its last
        handle while the still-open slab lives until close()."""
        with FrameArena(slab_bytes=256, name_prefix="repro-t-refs") as arena:
            first = arena.place(np.zeros(200, dtype=np.uint8))
            second = arena.place(np.zeros(200, dtype=np.uint8))  # seals slab 1
            assert arena.open_segments == 2
            assert arena.outstanding_handles == 2
            arena.release(first)  # sealed slab, last ref → destroyed now
            assert arena.open_segments == 1
            assert not shm_segments(first.segment)
            arena.release(second)  # open slab → survives for allocation
            assert arena.open_segments == 1
            assert arena.outstanding_handles == 0
        assert not shm_segments("repro-t-refs")

    def test_over_release_raises(self):
        with FrameArena(name_prefix="repro-t-over") as arena:
            handle = arena.place(np.zeros(4, dtype=np.uint8))
            arena.release(handle)
            with pytest.raises(ValueError, match="more times than placed"):
                arena.release(handle)

    def test_release_of_foreign_handle_raises(self):
        with FrameArena(name_prefix="repro-t-foreign") as arena:
            with pytest.raises(ValueError, match="not .*owned by this arena"):
                arena.release(FrameHandle("repro-nowhere-0", 0, (1,), "|u1"))

    def test_close_idempotent_and_place_after_close_raises(self):
        arena = FrameArena(name_prefix="repro-t-closed")
        arena.place(np.zeros(4, dtype=np.uint8))
        arena.close()
        arena.close()  # no-op, no raise
        assert arena.open_segments == 0
        assert not shm_segments("repro-t-closed")
        with pytest.raises(ValueError, match="close"):
            arena.place(np.zeros(4, dtype=np.uint8))

    def test_close_unlinks_unreleased_segments(self):
        """The teardown guarantee: handles never released still die
        with the arena — nothing leaks from an abandoned run."""
        arena = FrameArena(slab_bytes=128, name_prefix="repro-t-abandon")
        for i in range(8):
            arena.place(np.full(100, i, dtype=np.uint8))
        assert arena.open_segments > 1
        assert shm_segments("repro-t-abandon")
        arena.close()
        assert not shm_segments("repro-t-abandon")

    def test_empty_array_placement(self):
        with FrameArena(name_prefix="repro-t-empty") as arena:
            handle = arena.place(np.zeros((0, 3), dtype=np.int32))
            assert handle.nbytes == 0
            assert read_array(handle).shape == (0, 3)

    def test_slab_bytes_validated(self):
        with pytest.raises(ValueError, match="slab_bytes"):
            FrameArena(slab_bytes=0)


class TestAttach:
    def test_attach_view_aliases_read_copy_owns(self):
        arr = np.arange(16, dtype=np.uint8)
        with FrameArena(name_prefix="repro-t-attach") as arena:
            handle = arena.place(arr)
            owned = read_array(handle)
            view = attach_array(handle)
            view[0] = 99  # mutate through the shared mapping
            assert attach_array(handle)[0] == 99  # view sees shared pages
            assert owned[0] == 0  # the copy took no lifetime along
            del view
            detach_segment(handle.segment)  # release mapping before unlink

    def test_detach_unknown_segment_is_noop(self):
        detach_segment("repro-never-created")


# -- ownership transfer ----------------------------------------------------


class TestExportSegment:
    def test_round_trip_single_segment_then_unlink(self):
        arrays = [
            np.arange(10, dtype=np.int32),
            np.zeros((2, 3), dtype=np.float64),
            np.array([], dtype=np.uint8),
        ]
        handles = export_segment(arrays, name_prefix="repro-t-tx")
        assert len({h.segment for h in handles}) == 1  # one segment per export
        assert shm_segments("repro-t-tx")
        for handle, arr in zip(handles, arrays):
            np.testing.assert_array_equal(read_array(handle), arr)
        unlink_segment(handles[0].segment)
        assert not shm_segments("repro-t-tx")

    def test_empty_export(self):
        assert export_segment([], name_prefix="repro-t-none") == []
        assert not shm_segments("repro-t-none")

    def test_unlink_is_idempotent(self):
        handles = export_segment([np.zeros(4, dtype=np.uint8)], name_prefix="repro-t-dbl")
        unlink_segment(handles[0].segment)
        unlink_segment(handles[0].segment)  # second unlink is a no-op
        assert not shm_segments("repro-t-dbl")


# -- typed sharing ---------------------------------------------------------


class TestShare:
    def test_frame_round_trip_via_arena(self):
        frame = random_frame(seed=3, index=7)
        with FrameArena(name_prefix="repro-t-frame") as arena:
            shared = share(frame, arena.place)
            assert handle_count(shared) == 3
            rebuilt = materialize(shared, unlink=False)  # arena owns lifetime
            assert rebuilt == frame and rebuilt.index == 7
        assert not shm_segments("repro-t-frame")

    def test_parsed_picture_round_trip_via_export(self, parsed_pictures):
        for parsed in parsed_pictures:
            shared = export(parsed, name_prefix="repro-t-parsed")
            assert handle_count(shared) == len(
                [a for a in (parsed.levels, parsed.dc_levels, parsed.hx, parsed.hy)
                 if a is not None]
            )
            assert materialize(shared, unlink=True) == parsed
        assert not shm_segments("repro-t-parsed")

    def test_intra_and_inter_shapes_covered(self, parsed_pictures):
        """The fixture really exercises both optional-member layouts."""
        intra, *inter = parsed_pictures
        assert intra.dc_levels is not None and intra.hx is None
        assert all(p.hx is not None and p.dc_levels is None for p in inter)

    def test_containers_recurse_preserving_type(self):
        frames = (random_frame(seed=1), [random_frame(seed=2)])
        with FrameArena(name_prefix="repro-t-nest") as arena:
            shared = share(frames, arena.place)
            assert isinstance(shared, tuple) and isinstance(shared[1], list)
            assert handle_count(shared) == 6
            rebuilt = materialize(shared, unlink=False)
        assert rebuilt[0] == frames[0] and rebuilt[1][0] == frames[1][0]

    def test_scalar_values_pass_through(self):
        for value in (3.5, "cell", None, (1, "two")):
            assert share(value, place=None) == value
            assert export(value) == value
            assert materialize(value) == value
            assert handle_count(value) == 0

    def test_payload_bytes_accounting(self):
        frame = random_frame()
        raw = 32 * 32 + 2 * 16 * 16
        assert payload_bytes(frame) == raw
        assert payload_bytes([frame, frame]) == 2 * raw
        assert payload_bytes(b"\x00" * 17) == 17
        assert payload_bytes("scalar") == 0

    def test_sequence_round_trip_via_arena(self):
        clip = Sequence(
            [random_frame(seed=i, index=i) for i in range(3)], fps=12.5, name="clip"
        )
        with FrameArena(name_prefix="repro-t-seq") as arena:
            shared = share(clip, arena.place)
            assert isinstance(shared, SharedSequence)
            assert shared.name == "clip" and shared.fps == 12.5
            assert handle_count(shared) == 9  # three planes per frame
            rebuilt = materialize(shared, unlink=False)
            assert isinstance(rebuilt, Sequence)
            assert rebuilt.name == clip.name and rebuilt.fps == clip.fps
            assert list(rebuilt) == list(clip)
        assert not shm_segments("repro-t-seq")

    def test_bare_array_round_trip(self):
        array = np.arange(64, dtype=np.uint8).reshape(8, 8)
        with FrameArena(name_prefix="repro-t-arr") as arena:
            shared = share(array, arena.place)
            assert isinstance(shared, FrameHandle)
            assert handle_count(shared) == 1
            np.testing.assert_array_equal(materialize(shared, unlink=False), array)
        assert not shm_segments("repro-t-arr")

    def test_payload_bytes_recurses_experiment_shapes(self):
        """The accounting covers what experiment specs actually carry:
        whole Sequence renders (sweep sources) and bare-array frame
        pairs (Fig. 4), nested inside ordinary containers."""
        per_frame = 32 * 32 + 2 * 16 * 16
        clip = Sequence([random_frame(seed=i) for i in range(2)], fps=30, name="s")
        pair = (
            np.zeros((8, 8), dtype=np.uint8),
            np.ones((8, 8), dtype=np.uint8),
        )
        assert payload_bytes(clip) == 2 * per_frame
        assert payload_bytes(pair) == 128
        assert payload_bytes([clip, pair, "label"]) == 2 * per_frame + 128


# -- the render-once store -------------------------------------------------


class TestFrameStore:
    def test_source_frames_rendered_once_and_identical(self):
        from repro.experiments.config import ExperimentConfig
        from repro.parallel.jobs import rendered_source

        config = ExperimentConfig(
            sequences=("miss_america",), qps=(16,), fps_list=(30,), frames=4
        )
        with FrameArena(name_prefix="repro-t-store") as arena:
            store = FrameStore(arena)
            first = store.source_frames("miss_america", config)
            second = store.source_frames("miss_america", config)
            assert first is second  # one render, one placement
            assert store.distinct_sources == 1
            rebuilt = materialize(first, unlink=False)
            assert list(rebuilt) == list(rendered_source("miss_america", config))
        assert not shm_segments("repro-t-store")

    def test_rig_frames_memoized_and_identical(self):
        from repro.experiments.fig4_characterization import rig_frames_cached

        motions = ((2, -1), (-3, 2))
        geometry = FrameGeometry(96, 80)
        with FrameArena(name_prefix="repro-t-rig") as arena:
            store = FrameStore(arena)
            first = store.rig_frames(motions, geometry, p=7, seed=3)
            second = store.rig_frames(motions, geometry, p=7, seed=3)
            assert first is second
            assert len(first) == len(motions) + 1
            assert store.distinct_sources == 1
            for handle, frame in zip(
                first, rig_frames_cached(motions, geometry, 7, 3)
            ):
                np.testing.assert_array_equal(read_array(handle), frame)
        assert not shm_segments("repro-t-rig")

    def test_place_delegates_to_arena(self):
        with FrameArena(name_prefix="repro-t-deleg") as arena:
            store = FrameStore(arena)
            handle = store.place(np.arange(6, dtype=np.int16))
            np.testing.assert_array_equal(
                read_array(handle), np.arange(6, dtype=np.int16)
            )
        assert not shm_segments("repro-t-deleg")


# -- what a spec costs to ship ---------------------------------------------


class _ByValueStore:
    """:class:`FrameStore` stand-in whose "handles" are the arrays
    themselves: packing a spec against it yields the frames-inline twin
    a shared-memory spec is priced against.  A sizing artifact only —
    the twin never runs."""

    def place(self, array):
        return array

    def source_frames(self, name, config):
        from repro.parallel.jobs import rendered_source

        return rendered_source(name, config)

    def rig_frames(self, motions, geometry, p, seed):
        from repro.experiments.fig4_characterization import rig_frames_cached

        return tuple(rig_frames_cached(tuple(motions), geometry, p, seed))


def _spec_payload(job) -> int:
    """Array/bytes payload riding in one spec's fields, nested cell
    lists included; zero for a fully packed shared-memory spec."""
    from dataclasses import fields

    from repro.parallel.jobs import JobSpec

    total = 0
    for spec_field in fields(job):
        value = getattr(job, spec_field.name)
        if isinstance(value, tuple) and value and isinstance(value[0], JobSpec):
            total += sum(_spec_payload(item) for item in value)
        else:
            total += payload_bytes(value)
    return total


class TestSpecPickles:
    """Under shared memory the worker pipe carries handles, never
    payload: on a 12-frame QCIF workload every packed spec pickles zero
    payload bytes, a parse spec and its result pickle stay a few hundred
    bytes, and each experiment spec shrinks >= 40x against its by-value
    twin (measured 107-141x).  ``/dev/shm`` ends clean."""

    FRAMES = 12

    def test_parse_specs_and_results_ship_handles(self):
        import pickle

        from repro.parallel.jobs import ParseFrameJob
        from repro.video.synthesis.sequences import make_sequence

        clip = make_sequence("foreman", frames=self.FRAMES, seed=0)
        bitstream = encode_sequence(clip, qp=16, estimator="tss", bitstream_version=2).bitstream
        index = FrameIndex.scan(bitstream)
        specs = [ParseFrameJob(payload=index.payload(bitstream, i)) for i in range(len(index))]
        parsed = [spec.run() for spec in specs]
        with FrameArena(name_prefix="repro-t-spec") as arena:
            packed = [spec.pack_shm(FrameStore(arena)) for spec in specs]
            spec_shm = np.mean([len(pickle.dumps(spec)) for spec in packed])
            assert all(payload_bytes(spec.payload) == 0 for spec in packed if spec.payload)
        shared = [export(p, name_prefix="repro-t-spec") for p in parsed]
        result_shm = np.mean([len(pickle.dumps(s)) for s in shared])
        assert [materialize(s, unlink=True) for s in shared] == parsed
        assert np.mean([payload_bytes(spec.payload) for spec in specs]) > 0
        assert spec_shm < 512
        assert spec_shm < np.mean([len(pickle.dumps(spec)) for spec in specs])
        assert result_shm < 2048
        assert result_shm < np.mean([len(pickle.dumps(p)) for p in parsed])
        assert not shm_segments("repro-t-spec")

    def test_experiment_specs_shrink_against_by_value_twins(self):
        import pickle

        from repro.experiments.config import ExperimentConfig
        from repro.experiments.fig4_characterization import DEFAULT_GLOBAL_MOTIONS
        from repro.parallel.jobs import EncodeJob, Fig4PairJob, SweepJob
        from repro.video.frame import QCIF

        config = ExperimentConfig(sequences=("foreman",), qps=(16,), frames=self.FRAMES)
        specs = (
            EncodeJob(sequence="foreman", fps=config.fps_list[0], estimator="tss", qp=16, config=config),
            SweepJob(config=config, estimators=("tss",)),
            Fig4PairJob(pair_index=0, motions=DEFAULT_GLOBAL_MOTIONS, geometry=QCIF, seed=0),
        )
        value_packed = [spec.pack_shm(_ByValueStore()) for spec in specs]
        with FrameArena(name_prefix="repro-t-spec") as arena:
            store = FrameStore(arena)
            shm_packed = [spec.pack_shm(store) for spec in specs]
            for spec, twin, shipped in zip(specs, value_packed, shm_packed):
                kind = type(spec).__name__
                assert _spec_payload(twin) > 0, kind
                assert _spec_payload(shipped) == 0, kind
                shrink = len(pickle.dumps(twin)) / len(pickle.dumps(shipped))
                assert shrink >= 40, f"{kind} spec pickle only shrank {shrink:.1f}x"
        assert not shm_segments("repro-t-spec")


# -- property round trips --------------------------------------------------


class TestShareProperties:
    """Hypothesis round trips: whatever the dims and payloads, share →
    materialize is the identity and ``/dev/shm`` ends clean."""

    @given(
        seed=st.integers(0, 2**16),
        height=st.integers(4, 24),
        width=st.integers(4, 24),
    )
    @settings(max_examples=25, deadline=None)
    def test_fig4_frame_pair_round_trip(self, seed, height, width):
        rng = np.random.default_rng(seed)
        pair = (
            rng.integers(0, 256, (height, width), dtype=np.uint8),
            rng.integers(0, 256, (height, width), dtype=np.uint8),
        )
        shared = export(pair, name_prefix="repro-t-prop")
        assert handle_count(shared) == 2
        assert all(isinstance(h, FrameHandle) for h in shared)
        rebuilt = materialize(shared, unlink=True)
        assert isinstance(rebuilt, tuple)
        for original, copy in zip(pair, rebuilt):
            np.testing.assert_array_equal(copy, original)
        assert not shm_segments("repro-t-prop")

    @given(
        seeds=st.lists(st.integers(0, 2**16), min_size=1, max_size=3),
        fps=st.sampled_from([10.0, 15.0, 30.0]),
    )
    @settings(max_examples=25, deadline=None)
    def test_sweep_source_list_round_trip(self, seeds, fps):
        clips = [
            Sequence(
                [random_frame(seed=seed + i, index=i) for i in range(2)],
                fps=fps,
                name=f"clip{position}",
            )
            for position, seed in enumerate(seeds)
        ]
        with FrameArena(name_prefix="repro-t-prop") as arena:
            shared = share(clips, arena.place)
            assert isinstance(shared, list)
            assert all(isinstance(s, SharedSequence) for s in shared)
            assert handle_count(shared) == 6 * len(clips)
            rebuilt = materialize(shared, unlink=False)
            for original, copy in zip(clips, rebuilt):
                assert copy.name == original.name and copy.fps == original.fps
                assert list(copy) == list(original)
        assert not shm_segments("repro-t-prop")
