"""Tests for the experiment harnesses (config, Fig. 4, RD sweep, Table 1).

These run on reduced workloads (few frames, small Qp grids) but through
the full production code paths.
"""

import numpy as np
import pytest

from repro.experiments.config import PAPER_QPS, PAPER_SEQUENCES, ExperimentConfig
from repro.experiments.fig4_characterization import (
    DEFAULT_GLOBAL_MOTIONS,
    default_world,
    run_fig4,
)
from repro.experiments.rd_curves import run_rd_sweep
from repro.experiments.table1_complexity import (
    Table1Result,
    fsbm_reference_positions,
    run_table1,
)
from repro.video.frame import FrameGeometry


class TestConfig:
    def test_paper_defaults(self):
        config = ExperimentConfig()
        assert config.qps == PAPER_QPS == (30, 28, 26, 24, 22, 20, 18, 16)
        assert config.sequences == PAPER_SEQUENCES
        assert config.p == 15
        assert config.acbm_params.alpha == 1000.0

    def test_subsample_factors(self):
        config = ExperimentConfig()
        assert config.subsample_factor(30) == 1
        assert config.subsample_factor(10) == 3

    def test_unknown_fps_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(fps_list=(25,))

    def test_too_few_frames_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(frames=2)

    @pytest.mark.parametrize("p", [0, 32])
    def test_search_range_outside_envelope_rejected(self, p):
        """A p no estimator accepts fails when the config is built, not
        at the first estimator of a sweep."""
        with pytest.raises(ValueError, match=r"p must be in 1\.\.31"):
            ExperimentConfig(p=p)


class TestFsbmReference:
    def test_paper_constant(self):
        assert fsbm_reference_positions(15) == 969

    def test_general_formula(self):
        assert fsbm_reference_positions(7) == 15 * 15 + 8

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            fsbm_reference_positions(0)


SMALL_GEOMETRY = FrameGeometry(96, 80)
SMALL_MOTIONS = ((1, 0), (-2, 1), (3, -2), (-5, 4))


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig4(motions=SMALL_MOTIONS, geometry=SMALL_GEOMETRY, p=7, seed=3)

    def test_observation_count(self, result):
        blocks = (96 // 16) * (80 // 16)
        assert len(result.observations) == blocks * len(SMALL_MOTIONS)

    def test_error_classes_capped_at_five(self, result):
        assert all(0 <= o.error_class <= 5 for o in result.observations)

    def test_true_vectors_exist(self, result):
        assert result.true_fraction() > 0.3

    def test_paper_conclusion_texture_implies_truth(self, result):
        """The paper's first Fig. 4 conclusion, in conditional form:
        high-textured blocks are *more likely* to carry true vectors."""
        obs = result.observations
        median = np.median([o.intra_sad for o in obs])
        high = [o for o in obs if o.intra_sad > median]
        low = [o for o in obs if o.intra_sad <= median]
        p_true_high = sum(o.error_class == 0 for o in high) / len(high)
        p_true_low = sum(o.error_class == 0 for o in low) / len(low)
        assert p_true_high > p_true_low

    def test_paper_conclusion_true_vectors_have_high_sad_deviation(self, result):
        """Second Fig. 4 conclusion: error-0 blocks exhibit larger
        SAD_deviation than erroneous ones."""
        means = result.class_means()
        wrong = [cls for cls in means if cls > 0]
        assert wrong, "the rig should produce some erroneous blocks"
        mean_wrong_dev = np.mean([means[c][1] for c in wrong])
        assert means[0][1] > mean_wrong_dev

    def test_interior_blocks_all_true(self, result):
        """Away from the clamped borders, FSBM recovers every commanded
        global vector exactly — the rig's internal consistency check."""
        rows = 80 // 16
        cols = 96 // 16
        inner = [
            o for o in result.observations
            if 0 < o.mb_row < rows - 1 and 0 < o.mb_col < cols - 1
        ]
        assert inner
        assert all(o.error_class == 0 for o in inner)

    def test_scatter_arrays_match_counts(self, result):
        """Each error class's dots (one Fig. 4 panel) number its count."""
        classes = result.classes()
        assert {cls: len(obs) for cls, obs in classes.items()} == result.class_counts()

    def test_as_text_renders(self, result):
        text = result.as_text()
        assert "error=0" in text
        assert "Intra_SAD" in text

    def test_motion_outside_window_rejected(self):
        with pytest.raises(ValueError):
            run_fig4(motions=((20, 0),), geometry=SMALL_GEOMETRY, p=7)

    def test_default_motions_within_paper_window(self):
        assert all(max(abs(dx), abs(dy)) <= 15 for dx, dy in DEFAULT_GLOBAL_MOTIONS)
        assert len(DEFAULT_GLOBAL_MOTIONS) == 9  # ten frames, nine vectors

    def test_default_world_regimes(self):
        world = default_world(SMALL_GEOMETRY, margin=16, seed=0)
        assert world.shape == (80 + 32, 96 + 32)
        assert world.min() >= 0.0 and world.max() <= 255.0


QUICK = ExperimentConfig(
    sequences=("miss_america", "foreman"),
    qps=(30, 16),
    fps_list=(30,),
    frames=4,
)


def acbm_positions(sweep, sequence: str, fps: int, qp: int) -> float:
    """The ACBM cell's average positions per MB: a Table 1 entry."""
    (cell,) = [
        c for c in sweep.cells
        if (c.sequence, c.fps, c.qp, c.estimator) == (sequence, fps, qp, "acbm")
    ]
    return cell.avg_positions


class TestRDSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return run_rd_sweep(QUICK, estimators=("acbm", "pbm"))

    def test_cell_count(self, sweep):
        assert len(sweep.cells) == 2 * 2 * 2  # seq x est x qp

    def test_curve_accessors(self, sweep):
        curve = sweep.curve("foreman", 30, "acbm")
        assert len(curve) == 2

    def test_figure_grouping(self, sweep):
        fig = sweep.figure(30)
        assert set(fig) == {"miss_america", "foreman"}
        assert set(fig["foreman"]) == {"acbm", "pbm"}

    def test_missing_cell_raises(self, sweep):
        with pytest.raises(ValueError):
            sweep.curve("carphone", 30, "acbm")
        with pytest.raises(ValueError):
            sweep.figure(10)

    def test_acbm_positions_lookup(self, sweep):
        positions = acbm_positions(sweep, "foreman", 30, 16)
        assert positions > 0

    def test_rate_decreases_with_qp(self, sweep):
        for cell_qp30 in sweep.cells:
            if cell_qp30.qp != 30:
                continue
            match = [
                c for c in sweep.cells
                if c.qp == 16 and c.sequence == cell_qp30.sequence
                and c.estimator == cell_qp30.estimator
            ][0]
            assert match.rate_kbps > cell_qp30.rate_kbps

    def test_as_text(self, sweep):
        text = sweep.as_text(30)
        assert "foreman" in text and "acbm" in text

    def test_progress_callback_invoked(self):
        messages = []
        tiny = ExperimentConfig(
            sequences=("miss_america",), qps=(30,), fps_list=(30,), frames=4
        )
        run_rd_sweep(tiny, estimators=("pbm",), progress=messages.append)
        assert messages == ["miss_america@30fps pbm qp=30"]


class TestTable1:
    @pytest.fixture(scope="class")
    def table(self):
        config = ExperimentConfig(
            sequences=("miss_america", "foreman"), qps=(30, 16), fps_list=(30,), frames=4
        )
        return run_table1(config)

    def test_columns_and_cells(self, table):
        assert isinstance(table, Table1Result)
        assert set(table.columns) == {("miss_america", 30), ("foreman", 30)}
        assert table.cell("foreman", 30, 16) > 0

    def test_reduction_vs_fsbm(self, table):
        assert 0.0 < table.reduction("miss_america", 30, 30) <= 1.0

    def test_qp_monotonicity(self, table):
        """Positions grow as Qp shrinks — Table 1's row trend."""
        for key in table.columns:
            seq, fps = key
            assert table.cell(seq, fps, 16) >= table.cell(seq, fps, 30)

    def test_sequence_ordering(self, table):
        assert table.sequence_mean("miss_america") < table.sequence_mean("foreman")

    def test_as_text(self, table):
        text = table.as_text()
        assert "969" in text
        assert "Qp" in text

    def test_missing_cell_raises(self, table):
        with pytest.raises(ValueError):
            table.cell("carphone", 30, 16)

    def test_reuses_existing_sweep(self, table):
        config = ExperimentConfig(
            sequences=("miss_america",), qps=(30,), fps_list=(30,), frames=4
        )
        sweep = run_rd_sweep(config, estimators=("acbm",))
        result = run_table1(config, sweep=sweep)
        assert result.cell("miss_america", 30, 30) == acbm_positions(sweep, "miss_america", 30, 30)
