"""Unit and integration tests for repro.codec.encoder."""

import numpy as np
import pytest

import repro.codec.encoder as encoder_module
from repro.codec.encoder import EncodeResult, Encoder, encode_sequence
from repro.me.estimator import MotionEstimator
from repro.me.full_search import FullSearchEstimator
from repro.me.stats import SearchStats
from repro.me.types import MotionField, MotionVector
from repro.video.frame import Frame, FrameGeometry, grey_frame
from repro.video.sequence import Sequence

from .conftest import shifted_plane, textured_plane

SMALL = FrameGeometry(64, 48)


def small_sequence(n=3, seed=100, noise=0.0):
    base = textured_plane(48, 64, seed=seed)
    rng = np.random.default_rng(seed + 1)
    frames = []
    for i in range(n):
        plane = shifted_plane(base, 0, i).astype(np.float64)
        if noise:
            plane += rng.normal(0, noise, plane.shape)
        frames.append(Frame(np.clip(plane, 0, 255), index=i))
    return Sequence(frames, fps=30.0, name="small")


class TestConstruction:
    def test_estimator_by_name(self):
        enc = Encoder(estimator="fsbm", qp=10, estimator_kwargs={"p": 7})
        assert enc.estimator.name == "fsbm"
        assert enc.estimator.p == 7

    def test_estimator_instance(self):
        est = FullSearchEstimator(p=5)
        assert Encoder(estimator=est, qp=10).estimator is est

    def test_kwargs_with_instance_rejected(self):
        with pytest.raises(ValueError):
            Encoder(estimator=FullSearchEstimator(), estimator_kwargs={"p": 3})

    def test_qp_validated(self):
        with pytest.raises(ValueError):
            Encoder(qp=0)
        with pytest.raises(ValueError):
            Encoder(qp=32)


class TestEncode:
    def test_first_frame_intra_rest_inter(self):
        result = encode_sequence(small_sequence(3), qp=12, estimator="pbm")
        assert [f.frame_type for f in result.frames] == ["I", "P", "P"]

    def test_bits_positive_and_summed(self):
        result = encode_sequence(small_sequence(3), qp=12, estimator="pbm")
        assert all(f.bits > 0 for f in result.frames)
        assert result.total_bits == sum(f.bits for f in result.frames)

    def test_bitstream_length_matches_bits(self):
        result = encode_sequence(small_sequence(3), qp=12, estimator="pbm")
        assert len(result.bitstream) == (result.total_bits + 7) // 8

    def test_reconstruction_tracks_original(self):
        result = encode_sequence(
            small_sequence(3), qp=4, estimator="fsbm",
            estimator_kwargs={"p": 7}, keep_reconstruction=True,
        )
        assert len(result.reconstruction) == 3
        assert result.mean_psnr_y > 30.0

    def test_keep_reconstruction_off(self):
        result = encode_sequence(small_sequence(2), qp=12)
        assert result.reconstruction == []

    def test_rate_kbps_formula(self):
        result = encode_sequence(small_sequence(3), qp=12, estimator="pbm")
        expected = result.total_bits / 3 * 30.0 / 1000.0
        assert result.rate_kbps == pytest.approx(expected)

    def test_search_stats_merged_over_p_frames(self):
        result = encode_sequence(small_sequence(4), qp=12, estimator="pbm")
        stats = result.search_stats
        assert stats.blocks == 3 * SMALL.mb_count  # 3 P-frames x 12 MBs

    def test_mean_psnr_p_frames_requires_p_frames(self):
        single = Sequence([grey_frame(SMALL)], fps=30)
        result = encode_sequence(single, qp=10)
        with pytest.raises(ValueError):
            result.mean_psnr_p_frames

    def test_static_scene_mostly_skipped(self):
        frames = [grey_frame(SMALL, value=90, index=i) for i in range(3)]
        result = encode_sequence(Sequence(frames, fps=30), qp=10, estimator="pbm")
        p_frames = [f for f in result.frames if f.frame_type == "P"]
        assert all(f.skipped_mbs == SMALL.mb_count for f in p_frames)
        # A fully skipped P frame costs the header + 1 bit per MB.
        assert all(f.bits < 100 for f in p_frames)


class TestQualityVsQp:
    def test_lower_qp_means_higher_quality_and_rate(self):
        seq = small_sequence(3, noise=2.0)
        fine = encode_sequence(seq, qp=4, estimator="pbm")
        coarse = encode_sequence(seq, qp=28, estimator="pbm")
        assert fine.mean_psnr_y > coarse.mean_psnr_y + 3.0
        assert fine.total_bits > coarse.total_bits

    def test_monotone_rate_over_qp_ladder(self):
        seq = small_sequence(3, noise=2.0)
        rates = [encode_sequence(seq, qp=qp, estimator="pbm").total_bits
                 for qp in (6, 12, 18, 24, 30)]
        assert rates == sorted(rates, reverse=True)


class TestEstimatorEffects:
    def test_good_me_beats_no_me_on_moving_content(self):
        """FSBM coding of a translating scene must cost far fewer bits
        than coding with a zero-motion-only estimator (TSS at p=1 is a
        close proxy: it can barely move)."""
        base = textured_plane(48, 64, seed=101)
        frames = [Frame(shifted_plane(base, 0, 3 * i), index=i) for i in range(3)]
        seq = Sequence(frames, fps=30, name="pan")
        moving = encode_sequence(seq, qp=8, estimator="fsbm", estimator_kwargs={"p": 7})
        stuck = encode_sequence(seq, qp=8, estimator="tss", estimator_kwargs={"p": 1})
        assert moving.total_bits < stuck.total_bits

    def test_repr_mentions_key_facts(self):
        result = encode_sequence(small_sequence(2), qp=13, estimator="pbm")
        text = repr(result)
        assert "qp=13" in text and "small" in text


class HoleyEstimator(MotionEstimator):
    """Stub search that leaves macroblock (1, 2) of every field unset."""

    name = "holey"

    def search_block(self, ctx):  # pragma: no cover - estimate() is overridden
        raise NotImplementedError

    def estimate(self, current, reference, prev_field=None, qp=16, ref_plane=None):
        rows, cols = current.shape[0] // 16, current.shape[1] // 16
        field = MotionField(rows, cols)
        for r in range(rows):
            for c in range(cols):
                if (r, c) != (1, 2):
                    field.set(r, c, MotionVector.zero())
        return field, SearchStats()


class TestIncompleteMotionField:
    @pytest.mark.parametrize("n_ref_frames", [1, 3])
    def test_missing_entry_named(self, n_ref_frames):
        """An estimator that leaves a macroblock unset is rejected with
        the macroblock's coordinates, on single- and multi-reference
        P-frames alike."""
        encoder = Encoder(estimator=HoleyEstimator(p=7), qp=16, n_ref_frames=n_ref_frames)
        with pytest.raises(ValueError, match=r"motion field missing entry \(1, 2\)"):
            encoder.encode(small_sequence(3))


class TestWholeFrameTransform:
    @pytest.mark.parametrize("n_ref_frames", [1, 3])
    def test_one_transform_pair_per_batched_frame(self, monkeypatch, n_ref_frames):
        """Seed-syntax I-frames and every P-frame run one forward and one
        inverse DCT over the whole ``(rows, cols, 6, 8, 8)`` block grid —
        a return to per-macroblock transforms shows up as extra calls.
        (A multi-reference encoder's I-frames use the GOP syntax, whose
        spatial prediction still transforms one macroblock at a time.)"""
        calls = {"forward_dct": [], "inverse_dct": []}
        for name, shapes in calls.items():
            real = getattr(encoder_module, name)

            def counted(blocks, real=real, shapes=shapes):
                shapes.append(np.shape(blocks))
                return real(blocks)

            monkeypatch.setattr(encoder_module, name, counted)
        result = encode_sequence(small_sequence(4), qp=12, estimator="fsbm", n_ref_frames=n_ref_frames)
        batched = len(result.frames) if n_ref_frames == 1 else len(result.frames) - 1
        grid = (SMALL.mb_rows, SMALL.mb_cols, 6, 8, 8)
        for shapes in calls.values():
            assert shapes.count(grid) == batched
            if n_ref_frames == 1:
                assert len(shapes) == batched
