"""Unit tests for repro.core.acbm — the paper's algorithm."""

import numpy as np
import pytest

from repro.core.acbm import ACBMBlockResult, ACBMEstimator
from repro.core.parameters import ACBMParameters
from repro.me.engine.reference_plane import ReferencePlane
from repro.me.estimator import BlockContext
from repro.me.full_search import FullSearchEstimator
from repro.me.predictive import PredictiveEstimator
from repro.me.types import MotionField, MotionVector

from .conftest import shifted_plane, textured_plane


def context(cur, ref, r=1, c=1, qp=16):
    rows, cols = cur.shape[0] // 16, cur.shape[1] // 16
    return BlockContext(cur, ref, r, c, MotionField.zeros(rows, cols), None, qp, ReferencePlane(ref))


class TestConstruction:
    def test_registered_name(self):
        assert ACBMEstimator().name == "acbm"

    def test_paper_defaults(self):
        est = ACBMEstimator()
        assert est.p == 15
        assert est.params == ACBMParameters.paper_defaults()

    def test_custom_params(self):
        est = ACBMEstimator(params=ACBMParameters(alpha=0, beta=0, gamma=0))
        assert est.params.alpha == 0


class TestDecisionRouting:
    def test_smooth_block_skips_full_search(self):
        flat = np.full((48, 64), 120, dtype=np.uint8)
        result = ACBMEstimator(p=15).search_block(context(flat, flat))
        assert isinstance(result, ACBMBlockResult)
        assert result.decision == "low_cost"
        assert not result.used_full_search
        assert result.positions < 30

    def test_always_full_search_params_route_every_block(self):
        ref = textured_plane(48, 64, seed=70)
        est = ACBMEstimator(p=15, params=ACBMParameters.always_full_search())
        result = est.search_block(context(ref, ref))
        assert result.decision == "critical"
        assert result.used_full_search
        # PBM cost + full 969.
        assert result.positions > 969

    def test_never_full_search_params_route_no_block(self):
        ref = textured_plane(48, 64, seed=71)
        cur = textured_plane(48, 64, seed=72)  # terrible prediction
        est = ACBMEstimator(p=15, params=ACBMParameters.never_full_search())
        result = est.search_block(context(cur, ref))
        assert not result.used_full_search

    def test_result_carries_intra_sad_and_sad_pbm(self):
        from repro.me.metrics import intra_sad

        ref = textured_plane(48, 64, seed=73)
        result = ACBMEstimator(p=15).search_block(context(ref, ref))
        assert result.intra_sad == pytest.approx(intra_sad(ref[16:32, 16:32]))
        assert result.sad_pbm >= 0


class TestQualityGuarantee:
    def test_critical_block_matches_full_search_quality(self):
        """On a critical block ACBM's SAD equals (or beats, via the PBM
        half-pel candidate) FSBM's."""
        rng = np.random.default_rng(74)
        ref = textured_plane(48, 64, seed=74)
        cur = rng.integers(0, 256, (48, 64), dtype=np.uint8)  # uncorrelated
        est = ACBMEstimator(p=15, params=ACBMParameters.always_full_search())
        full = FullSearchEstimator(p=15)
        acbm_result = est.search_block(context(cur, ref))
        full_result = full.search_block(context(cur, ref))
        assert acbm_result.sad <= full_result.sad

    def test_acbm_never_worse_than_pbm(self):
        ref = textured_plane(48, 64, seed=75)
        cur = shifted_plane(ref, 3, -4)
        acbm_result = ACBMEstimator(p=15).search_block(context(cur, ref))
        pbm_result = PredictiveEstimator(p=15).search_block(context(cur, ref))
        assert acbm_result.sad <= pbm_result.sad


class TestCostAccounting:
    def test_accepted_block_costs_pbm_only(self):
        ref = textured_plane(48, 64, seed=76)
        acbm_result = ACBMEstimator(p=15).search_block(context(ref, ref))
        pbm_result = PredictiveEstimator(p=15).search_block(context(ref, ref))
        if not acbm_result.used_full_search:
            assert acbm_result.positions == pbm_result.positions

    def test_critical_block_costs_pbm_plus_fsbm(self):
        ref = textured_plane(96, 96, seed=77)
        cur = np.random.default_rng(78).integers(0, 256, (96, 96), dtype=np.uint8)
        est = ACBMEstimator(p=15, params=ACBMParameters.always_full_search())
        result = est.search_block(context(cur, ref, r=2, c=2))
        pbm_cost = PredictiveEstimator(p=15).search_block(context(cur, ref, r=2, c=2)).positions
        # 961 integer positions plus 3-8 half-pel neighbours (fewer when
        # the integer winner lands on the window edge).
        assert pbm_cost + 961 + 3 <= result.positions <= pbm_cost + 969

    def test_estimate_records_decisions(self):
        ref = textured_plane(48, 64, seed=79)
        cur = shifted_plane(ref, 1, 1)
        _, stats = ACBMEstimator(p=15).estimate(cur, ref, qp=16)
        assert sum(stats.decisions.values()) == stats.blocks
        assert set(stats.decisions) <= {"low_cost", "good_prediction", "critical"}

    def test_qp_monotonicity_of_cost(self):
        """Coarser Qp → larger acceptance region → fewer positions:
        Table 1's row trend, on raw planes."""
        ref = textured_plane(96, 112, seed=80)
        rng = np.random.default_rng(81)
        cur = np.clip(
            shifted_plane(ref, 1, 2).astype(float) + rng.normal(0, 6, ref.shape), 0, 255
        ).astype(np.uint8)
        est = ACBMEstimator(p=15)
        costs = {}
        for qp in (30, 22, 16):
            _, stats = est.estimate(cur, ref, qp=qp)
            costs[qp] = stats.avg_positions_per_block
        assert costs[30] <= costs[22] <= costs[16]


class TestLagrangianArbitration:
    def test_default_is_sad_arbitration(self):
        assert not ACBMEstimator().lagrangian

    def test_lagrangian_prefers_cheap_vector_on_ties(self):
        """On flat content every candidate ties at SAD ~0; the
        Lagrangian tie-break must keep the (free) predictive vector."""
        flat = np.full((48, 64), 128, dtype=np.uint8)
        est = ACBMEstimator(
            p=7, params=ACBMParameters.always_full_search(), lagrangian=True
        )
        result = est.search_block(context(flat, flat, qp=30))
        assert result.used_full_search
        assert result.mv == MotionVector.zero()

    def test_lagrangian_encode_not_worse_rd(self):
        """With J-based arbitration the encode's rate never exceeds the
        SAD-arbitrated one by more than noise, at equal-or-better cost."""
        from repro.codec.encoder import encode_sequence
        from repro.video.synthesis.sequences import make_sequence

        seq = make_sequence("foreman", frames=5)
        plain = encode_sequence(seq, qp=20, estimator=ACBMEstimator(p=15))
        lagr = encode_sequence(seq, qp=20, estimator=ACBMEstimator(p=15, lagrangian=True))
        assert lagr.rate_kbps <= plain.rate_kbps * 1.01
        assert lagr.mean_psnr_y >= plain.mean_psnr_y - 0.1
