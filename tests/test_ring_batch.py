"""Golden tests for the fast searches' whole-frame lockstep and ACBM's
lazy per-frame SAD surface.

The contract: batching changes **nothing observable** — motion fields,
SADs, position counts and classifier decisions are bit-identical to the
per-block oracle (:func:`repro.reference.estimate_motion`) for all six
fast searches and for ACBM at any ``surface_threshold``.  The full
lockstep matrix lives in ``tests/test_pattern_lockstep.py``.
"""

import numpy as np
import pytest

from repro import reference
from repro.core.parameters import ACBMParameters
from repro.me.candidates import BatchEvaluator
from repro.me.estimator import create_estimator
from repro.video.frame import FrameGeometry
from repro.video.synthesis.sequences import make_sequence

FAST_SEARCHES = ("tss", "ntss", "fss", "ds", "hexbs", "cds")
GEOMETRY = FrameGeometry(96, 80)


@pytest.fixture(scope="module")
def frame_pair():
    seq = make_sequence("foreman", frames=3, seed=1, geometry=GEOMETRY)
    return seq[0].y, seq[1].y


def fields_identical(a, b) -> bool:
    ahx, ahy = a.to_arrays()
    bhx, bhy = b.to_arrays()
    return bool(np.array_equal(ahx, bhx) and np.array_equal(ahy, bhy))


def stats_tuple(stats):
    return (stats.blocks, stats.positions, stats.full_search_blocks, stats.decisions)


class TestFastSearchRingGolden:
    @pytest.mark.parametrize("name", FAST_SEARCHES)
    def test_bit_identical_to_per_block(self, frame_pair, name):
        ref, cur = frame_pair
        est = create_estimator(name, p=15)
        field_b, stats_b = est.estimate(cur, ref)
        field_s, stats_s, _ = reference.estimate_motion(est, cur, ref)
        assert fields_identical(field_b, field_s)
        assert stats_tuple(stats_b) == stats_tuple(stats_s)

    @pytest.mark.parametrize("name", FAST_SEARCHES)
    def test_opening_stage_is_fixed_and_in_window(self, frame_pair, name, monkeypatch):
        """The lockstep's first gather scores one data-independent
        pattern, around the zero vector, for every block of the frame."""
        ref, cur = frame_pair
        calls = []
        original = BatchEvaluator.evaluate

        def recording(ev, active, dxs, dys):
            calls.append((active.copy(), *np.broadcast_arrays(dxs, dys, active[:, None])[:2]))
            return original(ev, active, dxs, dys)

        monkeypatch.setattr(BatchEvaluator, "evaluate", recording)
        create_estimator(name, p=15).estimate(cur, ref)
        active, dxs, dys = calls[0]
        rows, cols = GEOMETRY.height // 16, GEOMETRY.width // 16
        assert np.array_equal(active, np.arange(rows * cols))
        assert (dxs == dxs[:1]).all() and (dys == dys[:1]).all()
        pattern = list(zip(dxs[0].tolist(), dys[0].tolist()))
        assert (0, 0) in pattern
        assert len(pattern) == len(set(pattern))  # no duplicate gathers
        assert all(max(abs(dx), abs(dy)) <= 15 for dx, dy in pattern)

    @pytest.mark.parametrize("name", ("tss", "ntss"))
    def test_small_p_ring_stays_in_window(self, frame_pair, name):
        """The step-derived rings shrink with p and stay bit-identical."""
        ref, cur = frame_pair
        est = create_estimator(name, p=3)
        field_b, stats_b = est.estimate(cur, ref)
        field_s, stats_s, _ = reference.estimate_motion(est, cur, ref)
        assert fields_identical(field_b, field_s)
        assert stats_tuple(stats_b) == stats_tuple(stats_s)


class TestACBMSurfaceGolden:
    @pytest.mark.parametrize(
        "params",
        [
            None,  # paper operating point
            ACBMParameters.always_full_search(),
            ACBMParameters.never_full_search(),
        ],
    )
    @pytest.mark.parametrize("threshold", [0, 3, 10**9])
    def test_bit_identical_for_any_threshold(self, frame_pair, params, threshold):
        ref, cur = frame_pair
        est = create_estimator("acbm", p=15, params=params, surface_threshold=threshold)
        field_b, stats_b = est.estimate(cur, ref, qp=16)
        field_s, stats_s, _ = reference.estimate_motion(est, cur, ref, qp=16)
        assert fields_identical(field_b, field_s)
        assert stats_tuple(stats_b) == stats_tuple(stats_s)

    def test_surface_built_lazily(self, frame_pair):
        """Frames whose critical count stays at/below the threshold never
        pay the whole-frame surface; above it the surface is built once."""
        ref, cur = frame_pair
        calls = []
        est = create_estimator(
            "acbm", p=15, params=ACBMParameters.always_full_search(), surface_threshold=2
        )
        import repro.core.acbm as acbm_module

        original = acbm_module.frame_sad_surfaces

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        acbm_module.frame_sad_surfaces = counting
        try:
            est.estimate(cur, ref, qp=16)
            assert len(calls) == 1  # built once, shared by all later blocks
            calls.clear()
            lazy = create_estimator(
                "acbm",
                p=15,
                params=ACBMParameters.never_full_search(),
                surface_threshold=2,
            )
            lazy.estimate(cur, ref, qp=16)
            assert calls == []  # no critical block ever crossed the threshold
        finally:
            acbm_module.frame_sad_surfaces = original

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            create_estimator("acbm", surface_threshold=-1)
