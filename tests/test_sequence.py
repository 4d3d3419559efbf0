"""Unit tests for repro.video.sequence."""

import pytest

from repro.video.frame import QCIF
from repro.video.sequence import Sequence

from .conftest import grey_frame


def make_seq(n=10, fps=30.0):
    return Sequence([grey_frame(QCIF, index=i) for i in range(n)], fps=fps, name="t")


class TestSequence:
    def test_length_and_iteration(self):
        seq = make_seq(5)
        assert len(seq) == 5
        assert [f.index for f in seq] == [0, 1, 2, 3, 4]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Sequence([], fps=30)

    def test_rejects_bad_fps(self):
        with pytest.raises(ValueError):
            Sequence([grey_frame(QCIF)], fps=0)

    def test_rejects_mixed_geometry(self):
        from repro.video.frame import CIF

        with pytest.raises(ValueError, match="mixed"):
            Sequence([grey_frame(QCIF), grey_frame(CIF)], fps=30)

    def test_indexing(self):
        seq = make_seq(5)
        assert seq[2].index == 2
        assert seq[-1].index == 4

    def test_slicing_returns_sequence(self):
        seq = make_seq(6)
        sub = seq[1:4]
        assert isinstance(sub, Sequence)
        assert len(sub) == 3
        assert sub.fps == seq.fps
        assert sub.name == seq.name

    def test_geometry(self):
        assert make_seq(2).geometry == QCIF


class TestSubsample:
    def test_factor_three_keeps_every_third(self):
        seq = make_seq(10, fps=30).subsample(3)
        assert [f.index for f in seq] == [0, 3, 6, 9]
        assert seq.fps == pytest.approx(10.0)

    def test_factor_one_is_identity_copy(self):
        seq = make_seq(4)
        out = seq.subsample(1)
        assert len(out) == 4
        assert out.fps == seq.fps

    def test_rejects_factor_below_one(self):
        with pytest.raises(ValueError):
            make_seq(4).subsample(0)

    def test_preserves_original_indices(self):
        seq = make_seq(7, fps=30).subsample(2)
        assert [f.index for f in seq] == [0, 2, 4, 6]

    def test_paper_rates(self):
        """30 fps source yields the paper's 15 and 10 fps variants."""
        source = make_seq(30, fps=30)
        assert source.subsample(2).fps == pytest.approx(15.0)
        assert source.subsample(3).fps == pytest.approx(10.0)


class TestPairs:
    def test_pairs_order(self):
        seq = make_seq(4)
        pairs = list(seq.pairs())
        assert len(pairs) == 3
        assert [(p.index, c.index) for p, c in pairs] == [(0, 1), (1, 2), (2, 3)]

    def test_single_frame_has_no_pairs(self):
        assert list(make_seq(1).pairs()) == []


def test_repr_mentions_name_and_fps():
    text = repr(make_seq(3, fps=10))
    assert "'t'" in text and "10" in text
