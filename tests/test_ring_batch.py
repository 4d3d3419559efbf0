"""Golden tests for the fast searches' whole-frame lockstep and ACBM's
critical-only full search.

The contract: batching changes **nothing observable** — motion fields,
SADs, position counts and classifier decisions are bit-identical to the
per-block oracle (:func:`repro.reference.estimate_motion`) for all six
fast searches and for ACBM at every operating point.  The full
lockstep matrix lives in ``tests/test_pattern_lockstep.py``.
"""

import numpy as np
import pytest

from repro import reference
from repro.core.parameters import ACBMParameters
from repro.me.candidates import BatchEvaluator
from repro.me.engine import SURFACE_SENTINEL, ReferencePlane
from repro.me.estimator import create_estimator
from repro.me.full_search import full_search_sads
from repro.video.frame import FrameGeometry
from repro.video.synthesis.sequences import make_sequence

FAST_SEARCHES = ("tss", "ntss", "fss", "ds", "hexbs", "cds")
GEOMETRY = FrameGeometry(96, 80)


@pytest.fixture(scope="module")
def frame_pair():
    seq = make_sequence("foreman", frames=3, seed=1, geometry=GEOMETRY)
    return seq[0].y, seq[1].y


def fields_identical(a, b) -> bool:
    return bool(np.array_equal(a.hx, b.hx) and np.array_equal(a.hy, b.hy))


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
    def test_bit_identical_for_any_threshold(self, frame_pair, params, threshold, monkeypatch):
        """The first ``threshold`` blocks of each list the kernel is
        handed are surfaced by per-block :func:`full_search_sads` maps
        instead — the two paths the retired ``surface_threshold`` knob
        chose between.  Which path surfaces a block changes nothing: 0
        runs the kernel only, 10**9 the per-block maps only, 3 mixes
        them within one list."""
        import repro.core.acbm as acbm_module

        ref, cur = frame_pair
        kernel = acbm_module.block_sad_surfaces

        def switching(current, reference, mb_rows, mb_cols, p):
            out = np.empty((len(mb_rows), 2 * p + 1, 2 * p + 1), dtype=np.int32)
            k = min(threshold, len(mb_rows))
            if k < len(mb_rows):
                out[k:] = kernel(current, reference, mb_rows[k:], mb_cols[k:], p)
            out[:k] = SURFACE_SENTINEL
            for b, (r, c) in enumerate(zip(mb_rows[:k].tolist(), mb_cols[:k].tolist())):
                sads, w = full_search_sads(current, reference.luma, r * 16, c * 16, p)
                out[b, w.dy_min + p : w.dy_max + p + 1, w.dx_min + p : w.dx_max + p + 1] = sads
            return out

        monkeypatch.setattr(acbm_module, "block_sad_surfaces", switching)
        est = create_estimator("acbm", p=15, params=params)
        field_b, stats_b = est.estimate(cur, ref, qp=16)
        field_s, stats_s, _ = reference.estimate_motion(est, cur, ref, qp=16)
        assert fields_identical(field_b, field_s)
        assert stats_tuple(stats_b) == stats_tuple(stats_s)

    def test_each_critical_block_surfaced_once(self, frame_pair, monkeypatch):
        """The kernel sees only critical blocks, each exactly once per
        frame however many sweeps classify it; a frame with no critical
        block never calls it."""
        import repro.core.acbm as acbm_module

        ref, cur = frame_pair
        lists = []
        original = acbm_module.block_sad_surfaces

        def counting(current, reference, mb_rows, mb_cols, *args):
            lists.append(list(zip(mb_rows.tolist(), mb_cols.tolist())))
            return original(current, reference, mb_rows, mb_cols, *args)

        monkeypatch.setattr(acbm_module, "block_sad_surfaces", counting)
        rows, cols = GEOMETRY.height // 16, GEOMETRY.width // 16
        for params in (None, ACBMParameters.always_full_search()):
            lists.clear()
            sweep = create_estimator("acbm", p=15, params=params).sweep(
                cur, ReferencePlane.wrap(ref), None, 16
            )
            surfaced = [block for blocks in lists for block in blocks]
            assert len(surfaced) == len(set(surfaced))
            final = set(zip(*np.nonzero(sweep.used_full_search)))
            assert final <= set(surfaced) and len(surfaced) <= rows * cols
        assert len(surfaced) == rows * cols  # always_full_search: every block, once
        lists.clear()
        create_estimator("acbm", p=15, params=ACBMParameters.never_full_search()).estimate(
            cur, ref, qp=16
        )
        assert lists == []
