"""Unit tests for repro.video.yuv_io."""

import numpy as np
import pytest

from repro.video.frame import Frame, FrameGeometry, QCIF
from repro.video.sequence import Sequence
from repro.video.yuv_io import frame_size_bytes, iter_yuv_frames, write_yuv

SMALL = FrameGeometry(32, 16)


def read_yuv(path, geometry, fps=30.0, max_frames=None):
    """A file's frames, streamed by :func:`iter_yuv_frames`, gathered
    into a :class:`Sequence`."""
    return Sequence(iter_yuv_frames(path, geometry, max_frames=max_frames), fps=fps)


def random_sequence(n=3, seed=5):
    rng = np.random.default_rng(seed)
    frames = [
        Frame(
            rng.integers(0, 256, (16, 32), dtype=np.uint8),
            rng.integers(0, 256, (8, 16), dtype=np.uint8),
            rng.integers(0, 256, (8, 16), dtype=np.uint8),
            index=i,
        )
        for i in range(n)
    ]
    return Sequence(frames, fps=30, name="io")


class TestFrameSize:
    def test_qcif_frame_size(self):
        # 176*144 + 2 * 88*72 = 38016 bytes — the well-known QCIF size.
        assert frame_size_bytes(QCIF) == 38016

    def test_small(self):
        assert frame_size_bytes(SMALL) == 32 * 16 + 2 * 16 * 8


class TestRoundTrip:
    def test_write_then_read_is_identity(self, tmp_path):
        seq = random_sequence(4)
        path = tmp_path / "clip.yuv"
        written = write_yuv(path, seq)
        assert written == 4 * frame_size_bytes(SMALL)
        back = read_yuv(path, SMALL, fps=30)
        assert len(back) == 4
        for a, b in zip(seq, back):
            assert a == b

    def test_read_respects_max_frames(self, tmp_path):
        path = tmp_path / "clip.yuv"
        write_yuv(path, random_sequence(5))
        back = read_yuv(path, SMALL, max_frames=2)
        assert len(back) == 2

    def test_iter_respects_max_frames(self, tmp_path):
        path = tmp_path / "clip.yuv"
        write_yuv(path, random_sequence(5))
        frames = list(iter_yuv_frames(path, SMALL, max_frames=3))
        assert [f.index for f in frames] == [0, 1, 2]

    def test_read_assigns_indices(self, tmp_path):
        path = tmp_path / "clip.yuv"
        write_yuv(path, random_sequence(3))
        back = read_yuv(path, SMALL)
        assert [f.index for f in back] == [0, 1, 2]


class TestErrors:
    def test_wrong_geometry_detected(self, tmp_path):
        path = tmp_path / "clip.yuv"
        write_yuv(path, random_sequence(2))
        with pytest.raises(ValueError, match="not a multiple"):
            list(iter_yuv_frames(path, QCIF))

    def test_truncated_trailing_frame_names_byte_count(self, tmp_path):
        """A file cut mid-frame raises an error naming exactly how many
        trailing bytes the partial frame left behind."""
        path = tmp_path / "clip.yuv"
        write_yuv(path, random_sequence(3))
        data = path.read_bytes()
        path.write_bytes(data[:-37])
        per_frame = frame_size_bytes(SMALL)
        with pytest.raises(ValueError, match=f"{per_frame - 37} trailing bytes"):
            list(iter_yuv_frames(path, SMALL))

    def test_truncation_error_even_when_bounded(self, tmp_path):
        """max_frames does not mask a corrupt file: the size check runs
        before any frame is yielded."""
        path = tmp_path / "clip.yuv"
        write_yuv(path, random_sequence(3))
        path.write_bytes(path.read_bytes()[:-1])
        leftover = frame_size_bytes(SMALL) - 1
        with pytest.raises(ValueError, match=f"{leftover} trailing bytes"):
            list(iter_yuv_frames(path, SMALL, max_frames=1))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.yuv"
        path.write_bytes(b"")
        assert list(iter_yuv_frames(path, SMALL)) == []
        with pytest.raises(ValueError, match="at least one frame"):
            read_yuv(path, SMALL)
