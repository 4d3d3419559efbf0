"""Unit tests for repro.me.cost and the estimator registry."""

import pytest

from repro.codec.mv_coding import mvd_bits
from repro.me.cost import LAMBDA_SCALE, lagrange_lambda
from repro.me.estimator import available_estimators, create_estimator
from repro.me.types import MotionVector


class TestLagrange:
    def test_lambda_linear_in_qp_for_sad_domain(self):
        assert lagrange_lambda(10) == pytest.approx(LAMBDA_SCALE * 10)

    def test_qp_range_enforced(self):
        with pytest.raises(ValueError):
            lagrange_lambda(0)
        with pytest.raises(ValueError):
            lagrange_lambda(32)

    def test_cheaper_vector_wins_at_high_qp(self):
        """The Lagrangian trade-off ACBM's arbitration computes, ``J =
        SAD + λ(Qp)·R(mvd)``: at coarse Qp, a slightly worse SAD with a
        much cheaper MVD gives lower J — the PBM advantage the paper
        describes."""
        pred = MotionVector.zero()
        smooth = 520 + lagrange_lambda(30) * mvd_bits(MotionVector(0, 0), pred)
        jagged = 500 + lagrange_lambda(30) * mvd_bits(MotionVector(20, -14), pred)
        assert smooth < jagged


#: Settings outside the batched kernels' envelope: p beyond 1..31 (the
#: 6-bit tie-break fields, the 5-bit header field), and any block size
#: at all — 16x16 is a constant of the kernels, so no constructor takes
#: one.
OUTSIDE_ENVELOPE = [("p", 0), ("p", 32), ("block_size", 0), ("block_size", 12), ("block_size", 32)]


@pytest.mark.parametrize("key,value", OUTSIDE_ENVELOPE)
@pytest.mark.parametrize("name", available_estimators())
def test_constructor_rejects_outside_envelope(name, key, value):
    """A ``p`` outside 1..31 is a ``ValueError``; a block size is an
    unknown argument, a ``TypeError`` naming it."""
    error, match = (ValueError, "^p must be") if key == "p" else (TypeError, key)
    with pytest.raises(error, match=match):
        create_estimator(name, **{key: value})


@pytest.mark.parametrize("name", available_estimators())
def test_constructor_takes_no_geometry_or_step_knobs(name):
    """Block size, half-pel and the search-step bounds are constants:
    16x16 macroblocks, half-pel always on."""
    est = create_estimator(name)
    assert est.p == 15 and not hasattr(est, "block_size")
    for knob in ("block_size", "half_pel", "refine_steps", "max_recentres"):
        with pytest.raises(TypeError, match=knob):
            create_estimator(name, **{knob: 1})


class TestRegistry:
    def test_all_builtins_registered(self):
        names = available_estimators()
        assert set(names) >= {"acbm", "fsbm", "pbm", "tss", "fss", "ds", "cds"}

    def test_create_by_name(self):
        est = create_estimator("fsbm", p=7)
        assert est.name == "fsbm"
        assert est.p == 7

    def test_create_unknown_raises_with_choices(self):
        with pytest.raises(ValueError, match="acbm"):
            create_estimator("epzs")

    def test_extended_baselines_registered(self):
        assert "ntss" in available_estimators()
        assert "hexbs" in available_estimators()

    def test_kwargs_forwarded(self):
        est = create_estimator("acbm", p=9, lagrangian=True)
        assert (est.p, est.lagrangian) == (9, True)

    def test_duplicate_registration_rejected(self):
        from repro.me.estimator import register_estimator

        with pytest.raises(ValueError, match="already registered"):

            @register_estimator("fsbm")
            class Dup:  # pragma: no cover - never instantiated
                pass
