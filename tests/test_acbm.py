"""Unit tests for repro.core.acbm — the paper's algorithm."""

import numpy as np
import pytest

from repro import reference
from repro.core.acbm import ACBMBlockResult, ACBMEstimator
from repro.core.parameters import ACBMParameters
from repro.me.engine.reference_plane import ReferencePlane
from repro.me.estimator import BlockContext
from repro.me.full_search import FullSearchEstimator
from repro.me.predictive import PredictiveEstimator
from repro.me.types import MotionField, MotionVector
from repro.obs import metrics

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
        """ACBM arbitrates by SAD alone, with no rate term and no switch
        for one: a critical block takes the full-search vector when its
        SAD is strictly lower, however far it is from the prediction."""
        ref = textured_plane(48, 64, seed=74)
        cur = shifted_plane(ref, 6, -7)
        est = ACBMEstimator(p=15, params=ACBMParameters.always_full_search())
        result = est.search_block(context(cur, ref))
        full = FullSearchEstimator(p=15).search_block(context(cur, ref))
        assert result.used_full_search
        assert full.sad < result.sad_pbm
        assert (result.mv, result.sad) == (full.mv, full.sad)
        with pytest.raises(TypeError, match="lagrangian"):
            ACBMEstimator(lagrangian=True)


class TestArbitration:
    def test_ties_keep_the_predictive_vector(self, monkeypatch):
        """A critical block takes the full-search vector only when its SAD
        is strictly lower.  The reference repeats every 4 columns and the
        current frame is it shifted 2 px, so +2 px and -2 px both match
        exactly.  PBM, seeded with +2 px (hx = 4), stops there at SAD 0;
        the full search's shortest-vector tie-break takes hx = -4 at the
        same SAD.  Both drivers must keep PBM's vector on those ties, and
        ``me.acbm.fs_wins`` must count only strict wins."""
        rng = np.random.default_rng(5)
        ref = np.tile(rng.integers(40, 216, size=(48, 4)), (1, 16)).astype(np.uint8)
        cur = shifted_plane(ref, 0, -2)
        prev = MotionField(np.full((3, 4), 4), np.zeros((3, 4), np.int64))
        est = ACBMEstimator(p=7, params=ACBMParameters.always_full_search())
        _, _, fs_blocks = reference.estimate_motion(FullSearchEstimator(p=7), cur, ref)
        fs_wins = metrics.counter("me.acbm.fs_wins")

        # The oracle walk's PBM-stage vector of each block, in raster order.
        pbm_mvs = []
        pbm_search = est._pbm.search_block

        def recording(ctx):
            result = pbm_search(ctx)
            pbm_mvs.append(result.mv)
            return result

        monkeypatch.setattr(est._pbm, "search_block", recording)
        before = fs_wins.value
        oracle, _, blocks = reference.estimate_motion(est, cur, ref, prev, qp=16)
        oracle_wins = fs_wins.value - before

        ties = [i for i, (b, fs) in enumerate(zip(blocks, fs_blocks)) if fs.sad == b.sad_pbm]
        moved = [i for i in ties if fs_blocks[i].mv != pbm_mvs[i]]
        assert len(moved) >= 3
        for i in moved:
            assert (pbm_mvs[i], fs_blocks[i].mv) == (MotionVector(4, 0), MotionVector(-4, 0))
        for i in ties:
            assert blocks[i].mv == pbm_mvs[i] and blocks[i].sad == blocks[i].sad_pbm
        strict = sum(fs.sad < b.sad_pbm for b, fs in zip(blocks, fs_blocks))
        assert oracle_wins == strict

        before = fs_wins.value
        field, stats = est.estimate(cur, ref, prev, qp=16)
        assert fs_wins.value - before == strict
        assert stats.full_search_blocks == 12
        for i in ties:
            assert MotionVector(field.hx.flat[i], field.hy.flat[i]) == pbm_mvs[i]
        assert np.array_equal(field.hx, oracle.hx) and np.array_equal(field.hy, oracle.hy)
