"""End-to-end tests of the paper's headline claims (Section 4).

These are the acceptance criteria from DESIGN.md section 5, run on
reduced workloads: shapes and orderings, not absolute numbers.
"""

import pytest

from repro.codec.encoder import encode_sequence
from repro.experiments.table1_complexity import fsbm_reference_positions
from repro.video.synthesis.sequences import make_sequence


@pytest.fixture(scope="module")
def foreman30():
    return make_sequence("foreman", frames=13, seed=0)


@pytest.fixture(scope="module")
def foreman10(foreman30):
    return foreman30.subsample(3)


@pytest.fixture(scope="module")
def miss_america30():
    return make_sequence("miss_america", frames=13, seed=0)


@pytest.fixture(scope="module")
def foreman_results(foreman30, foreman10):
    """Encodes shared by several claims below."""
    out = {}
    for label, seq in (("30", foreman30), ("10", foreman10)):
        for est in ("acbm", "fsbm", "pbm"):
            out[(label, est)] = encode_sequence(seq, qp=20, estimator=est)
    return out


class TestClaimQualityMatchesFsbm:
    """"similar quality levels to the ones obtained with the FSBM"."""

    def test_acbm_psnr_within_tolerance_of_fsbm(self, foreman_results):
        for fps in ("30", "10"):
            acbm = foreman_results[(fps, "acbm")]
            fsbm = foreman_results[(fps, "fsbm")]
            assert acbm.mean_psnr_y >= fsbm.mean_psnr_y - 0.25

    def test_acbm_rate_not_worse_than_fsbm(self, foreman_results):
        """The "slightly better rate-distortion" comes from the cheaper
        (smoother) motion field: at matched Qp, rate must not exceed
        FSBM's by more than a hair."""
        for fps in ("30", "10"):
            acbm = foreman_results[(fps, "acbm")]
            fsbm = foreman_results[(fps, "fsbm")]
            assert acbm.rate_kbps <= fsbm.rate_kbps * 1.02


class TestClaimComplexityReduction:
    """"reductions of up to 95% in the computational load"."""

    def test_acbm_cheaper_than_fsbm_on_foreman(self, foreman_results):
        acbm = foreman_results[("30", "acbm")]
        assert acbm.avg_positions_per_mb < fsbm_reference_positions(15)

    def test_miss_america_reduction_is_dramatic(self, miss_america30):
        result = encode_sequence(miss_america30, qp=28, estimator="acbm")
        reduction = 1.0 - result.avg_positions_per_mb / fsbm_reference_positions(15)
        assert reduction > 0.9  # the "up to 95%" regime

    def test_cost_ordering_smooth_below_textured(self, miss_america30, foreman30):
        smooth = encode_sequence(miss_america30, qp=22, estimator="acbm")
        textured = encode_sequence(foreman30, qp=22, estimator="acbm")
        assert smooth.avg_positions_per_mb < textured.avg_positions_per_mb

    def test_cost_grows_as_qp_shrinks(self, foreman30):
        costs = [
            encode_sequence(foreman30[:7], qp=qp, estimator="acbm").avg_positions_per_mb
            for qp in (30, 22, 16)
        ]
        assert costs[0] <= costs[1] <= costs[2]


class TestClaimPbmGapGrowsAtLowFrameRate:
    """"the difference between PBM and ACBM becomes larger as the frame
    rate decreases" (Figs. 5 vs 6)."""

    @staticmethod
    def _quality_gap(results, fps):
        """ACBM advantage over PBM in dB, charging rate differences at
        0.1 dB per % rate (enough to rank clearly dominated points)."""
        acbm = results[(fps, "acbm")]
        pbm = results[(fps, "pbm")]
        psnr_gap = acbm.mean_psnr_y - pbm.mean_psnr_y
        rate_gap = (pbm.rate_kbps - acbm.rate_kbps) / acbm.rate_kbps
        return psnr_gap + 10.0 * rate_gap

    def test_gap_wider_at_10fps(self, foreman_results):
        gap30 = self._quality_gap(foreman_results, "30")
        gap10 = self._quality_gap(foreman_results, "10")
        assert gap10 > gap30

    def test_pbm_clearly_dominated_at_10fps(self, foreman_results):
        """At 10 fps the predictive search is trapped by the displaced
        periodic texture: worse PSNR at (much) higher rate."""
        acbm = foreman_results[("10", "acbm")]
        pbm = foreman_results[("10", "pbm")]
        assert pbm.rate_kbps > acbm.rate_kbps * 1.1
        assert pbm.mean_psnr_y < acbm.mean_psnr_y + 0.05


class TestClaimPbmIsCheapButSequenceDependent:
    def test_pbm_cost_tiny_everywhere(self, foreman_results):
        for fps in ("30", "10"):
            pbm = foreman_results[(fps, "pbm")]
            assert pbm.avg_positions_per_mb < 60

    def test_acbm_tracks_pbm_cost_on_easy_content(self, miss_america30):
        acbm = encode_sequence(miss_america30, qp=28, estimator="acbm")
        pbm = encode_sequence(miss_america30, qp=28, estimator="pbm")
        assert acbm.avg_positions_per_mb < 3 * pbm.avg_positions_per_mb


class TestCifSupport:
    """The paper also evaluates CIF (352x288); the whole pipeline must
    work there, not just at QCIF."""

    def test_cif_encode_decode_round_trip(self):
        from repro.codec.decoder import decode_bitstream
        from repro.video.frame import CIF

        seq = make_sequence("miss_america", frames=3, geometry=CIF)
        assert seq.geometry == CIF
        result = encode_sequence(seq, qp=22, estimator="acbm", keep_reconstruction=True)
        assert result.search_stats.blocks == 2 * CIF.mb_rows * CIF.mb_cols
        decoded = decode_bitstream(result.bitstream)
        assert all(d == r for d, r in zip(decoded, result.reconstruction))
