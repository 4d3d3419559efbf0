"""Golden tests for the batched first-ring driver and ACBM's lazy
per-frame SAD surface.

The contract: the engine's ring batching changes **nothing
observable** — motion fields, SADs, position counts and classifier
decisions are bit-identical to the per-block oracle
(:func:`repro.reference.estimate_motion`, no warm first ring) for all
six fast searches and for ACBM at any ``surface_threshold``.
"""

import numpy as np
import pytest

from repro import reference
from repro.core.parameters import ACBMParameters
from repro.me.engine.kernels import frame_ring_sad
from repro.me.engine.reference_plane import ReferencePlane
from repro.me.estimator import create_estimator
from repro.me.metrics import sad
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


class TestFrameRingSad:
    def test_matches_per_candidate_sad(self, frame_pair):
        ref, cur = frame_pair
        offsets = ((0, 0), (-2, 1), (3, -4), (8, 8), (-15, 0))
        out = frame_ring_sad(cur, ReferencePlane.wrap(ref), offsets, 16)
        rows, cols = GEOMETRY.height // 16, GEOMETRY.width // 16
        assert out.shape == (rows, cols, len(offsets))
        for r in range(rows):
            for c in range(cols):
                y, x = r * 16, c * 16
                for k, (dx, dy) in enumerate(offsets):
                    y0, x0 = y + dy, x + dx
                    inside = (
                        0 <= y0 <= GEOMETRY.height - 16 and 0 <= x0 <= GEOMETRY.width - 16
                    )
                    if inside:
                        expected = sad(
                            cur[y : y + 16, x : x + 16], ref[y0 : y0 + 16, x0 : x0 + 16]
                        )
                        assert out[r, c, k] == expected
                    else:
                        assert out[r, c, k] == -1

    def test_raw_reference_equivalent_to_plane(self, frame_pair):
        ref, cur = frame_pair
        offsets = ((0, 0), (1, 1), (-8, 3))
        assert np.array_equal(
            frame_ring_sad(cur, ref, offsets, 16),
            frame_ring_sad(cur, ReferencePlane.wrap(ref), offsets, 16),
        )

    def test_rejects_bad_inputs(self, frame_pair):
        ref, cur = frame_pair
        with pytest.raises(ValueError):
            frame_ring_sad(cur, ref[:, :-16], ((0, 0),), 16)
        with pytest.raises(ValueError):
            frame_ring_sad(cur, ref, (), 16)
        with pytest.raises(ValueError):
            frame_ring_sad(cur[:-1], ref[:-1], ((0, 0),), 16)


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
    def test_first_ring_is_fixed_and_in_window(self, name):
        est = create_estimator(name, p=15)
        ring = est.first_ring()
        assert ring is not None and (0, 0) in ring
        assert len(ring) == len(set(ring))  # no duplicate gathers
        assert all(max(abs(dx), abs(dy)) <= 15 for dx, dy in ring)

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
