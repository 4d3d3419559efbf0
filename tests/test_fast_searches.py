"""Unit tests for the classic fast-search baselines (TSS, 4SS, DS, CDS)."""

import numpy as np
import pytest

from repro.me.candidates import CandidateEvaluator
from repro.me.cross_diamond import CrossDiamondEstimator
from repro.me.diamond import DiamondEstimator
from repro.me.engine.reference_plane import ReferencePlane
from repro.me.estimator import BlockContext
from repro.me.four_step import FourStepEstimator
from repro.me.full_search import FullSearchEstimator
from repro.me.hexagon import HexagonEstimator
from repro.me.new_three_step import NewThreeStepEstimator
from repro.me.search_window import clamped_window
from repro.me.three_step import ThreeStepEstimator, initial_step
from repro.me.types import MotionField, MotionVector

from .conftest import pinned, shifted_plane, textured_plane

ALL_FAST = [
    ThreeStepEstimator,
    NewThreeStepEstimator,
    FourStepEstimator,
    DiamondEstimator,
    CrossDiamondEstimator,
    HexagonEstimator,
]


def context(cur, ref, r=1, c=1):
    rows, cols = cur.shape[0] // 16, cur.shape[1] // 16
    return BlockContext(cur, ref, r, c, MotionField.zeros(rows, cols), None, 16, ReferencePlane(ref))


def walked(est, ctx):
    """``est``'s integer-pel stages on ``ctx``'s block: the evaluator
    :meth:`search_block` hands to the half-pel step."""
    window = clamped_window(ctx.block_y, ctx.block_x, 16, 16, *ctx.reference.shape, est.p)
    evaluator = CandidateEvaluator(ctx.block, ctx.ref_plane, ctx.block_y, ctx.block_x, window)
    est.walk(evaluator)
    return evaluator


class TestInitialStep:
    def test_classic_p7_gives_4(self):
        assert initial_step(7) == 4

    def test_paper_p15_gives_8(self):
        assert initial_step(15) == 8

    def test_minimum_is_one(self):
        assert initial_step(1) == 1


class TestRegisteredNames:
    def test_names(self):
        assert ThreeStepEstimator().name == "tss"
        assert NewThreeStepEstimator().name == "ntss"
        assert FourStepEstimator().name == "fss"
        assert DiamondEstimator().name == "ds"
        assert CrossDiamondEstimator().name == "cds"
        assert HexagonEstimator().name == "hexbs"


@pytest.mark.parametrize("cls", ALL_FAST)
class TestCommonBehaviour:
    def test_zero_motion(self, cls):
        ref = textured_plane(64, 80, seed=50)
        result = cls(p=15).search_block(context(ref, ref))
        assert result.mv == MotionVector.zero()
        assert result.sad == 0

    def test_finds_moderate_translation(self, cls):
        # 2 px diagonal: inside every pattern's guaranteed reach (NTSS's
        # second-step stop caps its first-stage capture radius at 2).
        ref = textured_plane(64, 80, seed=51)
        cur = shifted_plane(ref, -2, 2)  # true mv = (-2, +2) px
        result = cls(p=15).search_block(context(cur, ref))
        assert result.mv == MotionVector(-4, 4)

    def test_far_cheaper_than_full_search(self, cls):
        ref = textured_plane(64, 80, seed=52)
        cur = shifted_plane(ref, 1, -1)
        result = cls(p=15).search_block(context(cur, ref))
        assert result.positions < 969 / 5

    def test_never_worse_than_zero_vector_start(self, cls):
        """The origin is always evaluated, so the result SAD can't
        exceed the zero-displacement SAD."""
        from repro.me.metrics import sad

        ref = textured_plane(64, 80, seed=53)
        cur = textured_plane(64, 80, seed=54)
        result = cls(p=15).search_block(context(cur, ref))
        assert result.sad <= sad(cur[16:32, 16:32], ref[16:32, 16:32])

    def test_vector_stays_in_window(self, cls):
        ref = textured_plane(64, 80, seed=55)
        cur = shifted_plane(ref, 9, 9)
        result = cls(p=7).search_block(context(cur, ref))
        assert max(abs(result.mv.hx), abs(result.mv.hy)) <= 2 * 7

    def test_half_pel_adds_at_most_8_positions(self, cls):
        ref = textured_plane(64, 80, seed=56)
        cur = shifted_plane(ref, 1, 1)
        est = cls(p=15)
        coarse = walked(est, context(cur, ref))
        fine = est.search_block(context(cur, ref))
        assert coarse.positions <= fine.positions <= coarse.positions + 8

    def test_estimate_whole_frame(self, cls):
        ref = textured_plane(48, 64, seed=57)
        cur = shifted_plane(ref, 0, 1)
        field, stats = cls(p=7).estimate(cur, ref)
        assert field.hx.shape == field.hy.shape == (3, 4)
        assert stats.blocks == 12


class TestTssSpecifics:
    def test_position_budget(self):
        """TSS at p=15: 1 + 4 stages x <=8 new points + <=8 half-pel."""
        ref = textured_plane(96, 96, seed=58)
        cur = shifted_plane(ref, 5, -7)
        result = ThreeStepEstimator(p=15).search_block(context(cur, ref, 2, 2))
        assert result.positions <= 1 + 4 * 8 + 8


class TestDiamondSpecifics:
    def test_recentre_bound_enforced(self):
        """``max_recentres`` is a class constant, not an argument, and
        the walk stops at it: bounded at one recentring, the 6-px walk
        ends within the first large diamond plus the small one."""
        with pytest.raises(TypeError, match="max_recentres"):
            DiamondEstimator(max_recentres=0)
        ref = textured_plane(96, 112, seed=59)
        cur = shifted_plane(ref, 0, -6)
        walk = walked(pinned(DiamondEstimator, max_recentres=1)(p=15), context(cur, ref, 2, 3))
        assert abs(walk.best_dx) + abs(walk.best_dy) <= 3
        assert walk.positions <= 1 + 8 + 4

    def test_moderate_displacement_reached_by_walking(self):
        ref = textured_plane(96, 112, seed=59)
        cur = shifted_plane(ref, 0, -6)
        result = DiamondEstimator(p=15).search_block(context(cur, ref, 2, 3))
        assert result.mv == MotionVector(12, 0)


class TestCrossDiamondSpecifics:
    def test_stationary_early_stop(self):
        """Centre-stop blocks cost at most 5 evaluations before half-pel."""
        ref = textured_plane(64, 80, seed=60)
        assert walked(CrossDiamondEstimator(p=15), context(ref, ref)).positions == 5

    def test_small_cross_stop(self):
        ref = textured_plane(64, 80, seed=61)
        cur = shifted_plane(ref, 0, -1)
        walk = walked(CrossDiamondEstimator(p=15), context(cur, ref))
        assert walk.best()[0] == MotionVector(2, 0)
        assert walk.positions <= 9


class TestAgainstFullSearch:
    @pytest.mark.parametrize("cls", ALL_FAST)
    def test_fast_search_sad_close_to_optimum_on_smooth_motion(self, cls):
        ref = textured_plane(64, 80, seed=62)
        cur = shifted_plane(ref, 2, 2)
        fast = cls(p=15).search_block(context(cur, ref))
        full = FullSearchEstimator(p=15).search_block(context(cur, ref))
        assert fast.sad == full.sad  # unimodal surface: all find the optimum


class TestNtssSpecifics:
    def test_first_step_stop_is_cheap(self):
        """A static block stops after centre + unit ring + step ring."""
        ref = textured_plane(96, 96, seed=63)
        walk = walked(NewThreeStepEstimator(p=15), context(ref, ref, 2, 2))
        assert walk.best()[0] == MotionVector.zero()
        assert walk.positions == 17  # 1 + 8 + 8

    def test_second_step_stop_for_unit_motion(self):
        ref = textured_plane(96, 96, seed=64)
        cur = shifted_plane(ref, 0, -1)
        walk = walked(NewThreeStepEstimator(p=15), context(cur, ref, 2, 2))
        assert walk.best()[0] == MotionVector(2, 0)
        assert walk.positions <= 17 + 5  # at most 5 fresh 3x3 points

    def test_cheaper_than_tss_on_static_content(self):
        ref = textured_plane(96, 96, seed=65)
        ntss = NewThreeStepEstimator(p=15).search_block(context(ref, ref, 2, 2))
        tss = ThreeStepEstimator(p=15).search_block(context(ref, ref, 2, 2))
        assert ntss.positions < tss.positions


class TestHexagonSpecifics:
    def test_recentre_bound_enforced(self):
        """As for DS: one recentring leaves the 6-px walk within the
        first hexagon plus the small diamond."""
        with pytest.raises(TypeError, match="max_recentres"):
            HexagonEstimator(max_recentres=0)
        ref = textured_plane(96, 112, seed=66)
        cur = shifted_plane(ref, 0, -6)
        walk = walked(pinned(HexagonEstimator, max_recentres=1)(p=15), context(cur, ref, 2, 3))
        assert abs(walk.best_dx) <= 3 and abs(walk.best_dy) <= 3
        assert walk.positions <= 1 + 6 + 4

    def test_walk_overlap_makes_recentres_cheap(self):
        """Each hexagon re-centre shares points with the previous one,
        so a 6-px walk costs far fewer than 6 full patterns."""
        ref = textured_plane(96, 112, seed=66)
        cur = shifted_plane(ref, 0, -6)
        walk = walked(HexagonEstimator(p=15), context(cur, ref, 2, 3))
        assert walk.best()[0] == MotionVector(12, 0)
        assert walk.positions <= 1 + 6 + 3 * 5 + 4
