"""Golden tests for the shared-memory transport layer (:mod:`repro.transport`).

The contracts under test:

* **arena lifetime** — :class:`FrameArena` hands out handles whose
  segments live until the arena closes, ``close()`` is idempotent and
  total, and no ``/dev/shm`` entry survives a ``with`` block;
* **handles** — a :class:`FrameHandle` pickles to a few hundred bytes
  whatever it names, and a packed
  :class:`~repro.parallel.GopEncodeJob` (the one spec that moves pixels
  through shared memory) pickles far smaller than its by-value twin.

Spawn-side attach-on-first-use is exercised end to end by the
``use_shm`` pool tests in ``tests/test_parallel.py`` — these tests stay
in-process.
"""


import numpy as np
import pytest

from repro.transport import (
    FrameArena,
    FrameHandle,
    attach_array,
    detach_segment,
    read_array,
)

from .conftest import gop_encode_jobs, shm_segments


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
        """The teardown guarantee: every segment a run filled lives
        until the arena closes and dies with it — nothing leaks from
        an abandoned run."""
        arena = FrameArena(slab_bytes=128, name_prefix="repro-t-abandon")
        for i in range(8):
            arena.place(np.full(100, i, dtype=np.uint8))
        assert arena.open_segments == 8  # full slabs stay until close
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


# -- what a spec costs to ship ---------------------------------------------


class TestSpecPickles:
    """Under shared memory the worker pipe carries handles, never
    pixels: a packed 12-frame QCIF GOP spec pickles >= 40x smaller than
    its by-value twin, and ``/dev/shm`` ends clean."""

    FRAMES = 12

    def test_gop_spec_shrinks_against_by_value_twin(self):
        import pickle

        from repro.video.synthesis.sequences import make_sequence

        clip = make_sequence("foreman", frames=self.FRAMES, seed=0)
        (spec,) = gop_encode_jobs(clip, i_period=self.FRAMES, qp=16)
        with FrameArena(name_prefix="repro-t-spec") as arena:
            packed = spec.pack_shm(arena)
            assert packed.planes is None
            assert len(packed.plane_handles) == self.FRAMES
            assert packed.pack_shm(arena) is packed  # packing twice is the identity
            shrink = len(pickle.dumps(spec)) / len(pickle.dumps(packed))
        assert shrink >= 40, f"GOP spec pickle only shrank {shrink:.1f}x"
        assert not shm_segments("repro-t-spec")
