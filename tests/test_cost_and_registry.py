"""Unit tests for the estimator registry and constructor envelope."""

import pytest

from repro.core.parameters import ACBMParameters
from repro.me.estimator import available_estimators, create_estimator


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
    16x16 macroblocks, half-pel always on.  ACBM has one arbitration
    (strict SAD), so no estimator takes a ``lagrangian`` switch."""
    est = create_estimator(name)
    assert est.p == 15 and not hasattr(est, "block_size")
    for knob in ("block_size", "half_pel", "refine_steps", "max_recentres", "lagrangian"):
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
        params = ACBMParameters(alpha=0, beta=0, gamma=0)
        est = create_estimator("acbm", p=9, params=params)
        assert (est.p, est.params) == (9, params)

    def test_duplicate_registration_rejected(self):
        from repro.me.estimator import register_estimator

        with pytest.raises(ValueError, match="already registered"):

            @register_estimator("fsbm")
            class Dup:  # pragma: no cover - never instantiated
                pass
