"""Golden-equivalence and property tests for the frame-level engine.

The engine (``repro.me.engine``) re-implements the seed's per-block,
per-candidate hot path as whole-frame vectorized kernels.  Nothing
about the numbers is allowed to change: every test here pins a batched
kernel against the per-block reference implementation it replaced —
same SADs, same vectors, same tie-breaks, same position counts, same
bitstreams.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference
from repro.me.candidates import CandidateEvaluator
from repro.me.engine import (
    SURFACE_SENTINEL,
    ReferencePlane,
    block_sad_surfaces,
    evaluate_candidates_batch,
    frame_sad_surfaces,
    refine_half_pel_batch,
    sad_deviations,
    select_minima,
)
from repro.kernels import numba_available, numpy_backend
from repro.kernels.numba_backend import make_backend
from repro.me.estimator import available_estimators, create_estimator
from repro.me.full_search import FullSearchEstimator, full_search_sads, select_minimum
from repro.me.metrics import sad, sad_deviation
from repro.me.search_window import SearchWindow, clamped_window
from repro.me.subpel import half_pel_block, predict_block, refine_half_pel
from repro.me.types import MotionVector
from repro.obs import metrics

from .conftest import backend_matrix, grained, integer_pel, shifted_plane, textured_plane

#: Every golden equivalence below re-runs per available kernel backend.
kernel_backend = backend_matrix()


def random_plane(seed: int, h: int = 48, w: int = 64) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 256, (h, w), dtype=np.uint8)


#: Planes no ReferencePlane accepts, with the dtype or shape the error
#: must name.
UNCACHEABLE = (
    (np.zeros((8, 8), dtype=np.float64), "float64"),
    (np.zeros((8, 8, 3), dtype=np.uint8), r"\(8, 8, 3\)"),
    (np.zeros((1, 8), dtype=np.uint8), r"\(1, 8\)"),
)


def tie_heavy_plane(seed: int, h: int = 48, w: int = 64) -> np.ndarray:
    """Two-level quantized noise: many equal-SAD minima, so tie-break
    paths actually execute."""
    rng = np.random.default_rng(seed)
    return (rng.integers(0, 2, (h, w)) * 120 + 40).astype(np.uint8)


# -- ReferencePlane ------------------------------------------------------


class TestReferencePlane:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), fy=st.integers(0, 1), fx=st.integers(0, 1))
    def test_block_matches_half_pel_block(self, seed, fy, fx):
        """Property: every half-pel block read from the cached plane is
        sample-for-sample the seed interpolation."""
        ref = random_plane(seed, 24, 20)
        plane = ReferencePlane(ref)
        rng = np.random.default_rng(seed + 1)
        height, width = 8, 8
        hy = 2 * int(rng.integers(0, ref.shape[0] - height)) + fy
        hx = 2 * int(rng.integers(0, ref.shape[1] - width)) + fx
        np.testing.assert_array_equal(
            plane.block(hy, hx, height, width), half_pel_block(ref, hy, hx, height, width)
        )

    def test_block_exhaustive_with_borders(self):
        """Every legal half-pel coordinate of a small plane, including
        the clipped border extremes."""
        ref = random_plane(7, 10, 12)
        plane = ReferencePlane(ref)
        height = width = 4
        for hy in range(0, 2 * (ref.shape[0] - height) + 1):
            for hx in range(0, 2 * (ref.shape[1] - width) + 1):
                np.testing.assert_array_equal(
                    plane.block(hy, hx, height, width),
                    half_pel_block(ref, hy, hx, height, width),
                )

    def test_half_plane_shape_and_integer_samples(self):
        ref = random_plane(3, 16, 18)
        plane = ReferencePlane(ref)
        assert plane.half_plane.shape == (31, 35)
        np.testing.assert_array_equal(plane.half_plane[::2, ::2], ref)

    def test_out_of_support_rejected(self):
        plane = ReferencePlane(np.zeros((8, 8), dtype=np.uint8))
        with pytest.raises(ValueError, match="support"):
            plane.block(1, 0, 8, 8)
        plane.block(0, 0, 8, 8)  # integer position at the edge is fine

    def test_wrap_rejects_uncacheable(self):
        """A float64, 3-D or smaller-than-2x2 plane raises, naming its
        dtype or shape, whether wrapped or constructed."""
        for make in (ReferencePlane, ReferencePlane.wrap):
            for bad, named in UNCACHEABLE:
                with pytest.raises(ValueError, match=named):
                    make(bad)
        plane = ReferencePlane(np.zeros((8, 8), dtype=np.uint8))
        assert ReferencePlane.wrap(plane) is plane

    @pytest.mark.parametrize("role", ["current", "reference"])
    def test_estimate_rejects_uncacheable(self, role):
        """``MotionEstimator.estimate`` takes 2-D uint8 planes only; no
        plane-less fallback remains."""
        for bad, named in UNCACHEABLE:
            ok = np.zeros(bad.shape[:2], dtype=np.uint8)
            planes = {"current": ok, "reference": ok, role: bad}
            with pytest.raises(ValueError, match=named):
                FullSearchEstimator(p=3).estimate(planes["current"], planes["reference"])

    def test_predict_matches_predict_block(self):
        ref = textured_plane(48, 64, seed=21)
        plane = ReferencePlane(ref)
        for mv in (MotionVector(4, -2), MotionVector(3, 1), MotionVector(-1, 0)):
            np.testing.assert_array_equal(
                plane.block(32 + mv.hy, 32 + mv.hx, 16, 16), predict_block(ref, 16, 16, mv, 16, 16)
            )



# -- frame_sad_surfaces --------------------------------------------------


GEOMETRIES = [
    (48, 64, 15),  # heavier clipping than the window on all sides
    (64, 48, 7),
    (32, 32, 3),
]


def clipped(surfaces: np.ndarray, r: int, c: int, window: SearchWindow, p: int) -> np.ndarray:
    """Block ``(r, c)``'s surface cut to its valid window — the layout
    :func:`full_search_sads` returns."""
    return surfaces[
        r, c, window.dy_min + p : window.dy_max + p + 1, window.dx_min + p : window.dx_max + p + 1
    ]


class TestFrameSadSurfaces:
    @pytest.mark.parametrize("h,w,p", GEOMETRIES)
    def test_matches_per_block_full_search(self, h, w, p):
        cur = random_plane(h * w + 16 + p, h, w)
        ref = random_plane(h * w + 16 + p + 1, h, w)
        fss = frame_sad_surfaces(cur, ref, p)
        assert fss.shape == (h // 16, w // 16, 2 * p + 1, 2 * p + 1) and fss.dtype == np.int32
        for r in range(h // 16):
            for c in range(w // 16):
                sads, window = full_search_sads(cur, ref, r * 16, c * 16, p)
                np.testing.assert_array_equal(clipped(fss, r, c, window, p), sads)
                # Everything outside the clipped window is the sentinel.
                mask = np.ones((2 * p + 1, 2 * p + 1), dtype=bool)
                mask[
                    window.dy_min + p : window.dy_max + p + 1,
                    window.dx_min + p : window.dx_max + p + 1,
                ] = False
                assert (fss[r, c][mask] == SURFACE_SENTINEL).all()

    def test_generic_path_identical_to_fast_path(self):
        cur, ref = random_plane(100), random_plane(101)
        fast = frame_sad_surfaces(cur, ref, 7)
        generic = reference.frame_sad_surfaces(cur, ref, 7)
        np.testing.assert_array_equal(fast, generic)

    def test_deviations_match_sad_deviation(self):
        cur, ref = random_plane(5), random_plane(6)
        devs = sad_deviations(frame_sad_surfaces(cur, ref, 15))
        assert devs.shape == (3, 4)
        for r in range(3):
            for c in range(4):
                sads, _ = full_search_sads(cur, ref, r * 16, c * 16, 15)
                assert devs[r, c] == sad_deviation(sads)

    def test_positions_match_windows(self):
        pos = select_minima(frame_sad_surfaces(random_plane(8), random_plane(9), 15))[3]
        for r in range(3):
            for c in range(4):
                assert pos[r, c] == clamped_window(r * 16, c * 16, 16, 16, 48, 64, 15).num_positions

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            frame_sad_surfaces(random_plane(1, 48, 64), random_plane(2, 48, 48), 7)


# -- block_sad_surfaces: the block-list kernel against the oracle --------


#: The surface kernel's bodies: the numpy binding, the numba kernel run
#: un-jitted (the compiled body's code path, without numba) and, where
#: numba imports, the compiled kernel itself.
SURFACE_BACKENDS = {"numpy": numpy_backend.BACKEND, "numba-sim": make_backend(jit=False)}
if numba_available():
    SURFACE_BACKENDS["numba"] = make_backend(jit=True)

#: Grid (rows, cols) per backend; the sim runs plain Python loops, so it
#: gets planes small enough that every block is a border block.
BORDER_GRIDS = {"numpy": (4, 5), "numba-sim": (2, 3), "numba": (4, 5)}


def oracle_surfaces(cur, ref, mb_rows, mb_cols, p) -> np.ndarray:
    """Per-block :func:`full_search_sads` laid out as the kernel's
    ``(N, 2p+1, 2p+1)`` stack, the sentinel outside each window."""
    n = 2 * p + 1
    out = np.full((len(mb_rows), n, n), SURFACE_SENTINEL, dtype=np.int64)
    for b, (r, c) in enumerate(zip(mb_rows, mb_cols)):
        sads, win = full_search_sads(cur, ref, r * 16, c * 16, p)
        out[b, win.dy_min + p : win.dy_max + p + 1, win.dx_min + p : win.dx_max + p + 1] = sads
    return out


def surface_planes(seed: int, h: int, w: int, saturated: bool) -> tuple[np.ndarray, np.ndarray]:
    """Random planes, or current all 255 against reference all 0 — every
    SAD then hits the 16^2 * 255 = 65,280 lane bound."""
    if saturated:
        return np.full((h, w), 255, dtype=np.uint8), np.zeros((h, w), dtype=np.uint8)
    return random_plane(seed, h, w), random_plane(seed + 1, h, w)


@st.composite
def block_lists(draw, max_grid: int, max_blocks: int):
    """A plane geometry and an arbitrary block list on it: unsorted,
    with repeats, possibly empty, any parity."""
    p = draw(st.sampled_from([1, 2, 7, 15, 31]))
    rows = draw(st.integers(1, max_grid))
    cols = draw(st.integers(1, max_grid))
    blocks = draw(
        st.lists(
            st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)), max_size=max_blocks
        )
    )
    planes = surface_planes(draw(st.integers(0, 2**16)), rows * 16, cols * 16, draw(st.booleans()))
    return planes, blocks, p


class TestBlockSadSurfaces:
    @staticmethod
    def check(backend, cur, ref, blocks, p):
        mb_rows = np.array([r for r, _ in blocks], dtype=np.int64)
        mb_cols = np.array([c for _, c in blocks], dtype=np.int64)
        got = SURFACE_BACKENDS[backend].sad_surfaces(cur, ref, mb_rows, mb_cols, p)
        assert got.dtype == np.int32
        np.testing.assert_array_equal(got, oracle_surfaces(cur, ref, mb_rows, mb_cols, p))
        return got

    @settings(max_examples=60, deadline=None)
    @given(block_lists(max_grid=5, max_blocks=12))
    def test_numpy_matches_per_block_oracle(self, case):
        (cur, ref), blocks, p = case
        self.check("numpy", cur, ref, blocks, p)

    @settings(max_examples=15, deadline=None)
    @given(block_lists(max_grid=2, max_blocks=3))
    def test_numba_sim_matches_per_block_oracle(self, case):
        (cur, ref), blocks, p = case
        self.check("numba-sim", cur, ref, blocks, p)

    @pytest.mark.parametrize("backend", sorted(SURFACE_BACKENDS))
    @pytest.mark.parametrize("p", [1, 2, 7, 15, 31])
    @pytest.mark.parametrize("grain", [4, 8, 16])
    def test_every_border_block(self, backend, grain, p):
        """Every border macroblock, in shuffled order, on planes that
        are piecewise constant over ``grain``-pixel cells
        (:func:`grained`), so equal SADs fill the clipped windows."""
        rows, cols = BORDER_GRIDS[backend]
        border = [
            (r, c)
            for r in range(rows)
            for c in range(cols)
            if r in (0, rows - 1) or c in (0, cols - 1)
        ]
        border = [border[i] for i in np.random.default_rng(grain * p).permutation(len(border))]
        cur, ref = surface_planes(grain + p, rows * 16, cols * 16, saturated=False)
        self.check(backend, grained(cur, grain), grained(ref, grain), border, p)

    @pytest.mark.parametrize("backend", sorted(SURFACE_BACKENDS))
    def test_saturated_lane_bound_and_odd_duplicated_list(self, backend):
        cur, ref = surface_planes(0, 32, 48, saturated=True)
        got = self.check(backend, cur, ref, [(1, 2), (0, 0), (1, 2)], 2)
        assert got[got != SURFACE_SENTINEL].min() == got[got != SURFACE_SENTINEL].max() == 65280

    @pytest.mark.parametrize("backend", sorted(SURFACE_BACKENDS))
    def test_empty_list(self, backend):
        cur, ref = surface_planes(1, 32, 32, saturated=False)
        assert self.check(backend, cur, ref, [], 7).shape == (0, 15, 15)

    def test_engine_entry_counts_blocks(self):
        fs_blocks = metrics.counter("me.fs_blocks")
        before = fs_blocks.value
        cur, ref = random_plane(3), random_plane(4)
        rows, cols = np.array([2, 0, 2]), np.array([1, 3, 1])
        got = block_sad_surfaces(cur, ReferencePlane(ref), rows, cols, 15)
        np.testing.assert_array_equal(got, oracle_surfaces(cur, ref, rows, cols, 15))
        assert fs_blocks.value - before == 3
        frame_sad_surfaces(cur, ref, 15)
        assert fs_blocks.value - before == 3 + 12


# -- select_minima -------------------------------------------------------


class TestSelectMinima:
    @pytest.mark.parametrize("maker", [random_plane, tie_heavy_plane])
    @pytest.mark.parametrize("p", [3, 7, 15])
    def test_matches_select_minimum(self, maker, p):
        cur, ref = maker(11), maker(12)
        dx, dy, sads, positions = select_minima(frame_sad_surfaces(cur, ref, p))
        for r in range(3):
            for c in range(4):
                block_sads, window = full_search_sads(cur, ref, r * 16, c * 16, p)
                mv, best = select_minimum(block_sads, window)
                assert MotionVector(2 * int(dx[r, c]), 2 * int(dy[r, c])) == mv
                assert int(sads[r, c]) == best
                assert int(positions[r, c]) == window.num_positions

    def test_flat_plane_ties_resolve_to_zero(self):
        flat = np.full((48, 64), 90, dtype=np.uint8)
        dx, dy, sads, _ = select_minima(frame_sad_surfaces(flat, flat, 7))
        assert (dx == 0).all() and (dy == 0).all() and (sads == 0).all()

    def test_wide_window_beyond_packed_key(self):
        """p > 31 exceeds the packed tie-break key's 6-bit fields, but
        select_minima ranks without packing: on the dense oracle's
        surfaces it must still match select_minimum exactly — tie-heavy
        content so the tie-break actually decides."""
        cur, ref = tie_heavy_plane(21, 96, 112), tie_heavy_plane(22, 96, 112)
        p = 35
        dx, dy, sads, _ = select_minima(reference.frame_sad_surfaces(cur, ref, p))
        for r in range(6):
            for c in range(7):
                block_sads, window = full_search_sads(cur, ref, r * 16, c * 16, p)
                mv, best = select_minimum(block_sads, window)
                assert MotionVector(2 * int(dx[r, c]), 2 * int(dy[r, c])) == mv
                assert int(sads[r, c]) == best


# -- refine_half_pel_batch ----------------------------------------------


class TestRefineHalfPelBatch:
    @pytest.mark.parametrize("maker,seed", [(random_plane, 31), (tie_heavy_plane, 32)])
    def test_matches_per_block_refinement(self, maker, seed):
        cur, ref = maker(seed), maker(seed + 1)
        p, s = 7, 16
        plane = ReferencePlane(ref)
        dx, dy, sads, _ = select_minima(frame_sad_surfaces(cur, plane, p))
        hx, hy, ref_sads, extra = refine_half_pel_batch(cur, plane, dx, dy, sads, p)
        for r in range(3):
            for c in range(4):
                window = clamped_window(r * s, c * s, s, s, *ref.shape, p)
                anchor = MotionVector(2 * int(dx[r, c]), 2 * int(dy[r, c]))
                block = cur[r * s : (r + 1) * s, c * s : (c + 1) * s]
                mv, best, evaluated = refine_half_pel(
                    block, plane, r * s, c * s, anchor, int(sads[r, c]), window
                )
                assert MotionVector(int(hx[r, c]), int(hy[r, c])) == mv
                assert int(ref_sads[r, c]) == best
                assert int(extra[r, c]) == evaluated


class TestSubMacroblockKernels:
    """The FSBM kernel chain on content finer than the macroblock:
    planes piecewise constant over 4- or 8-pixel cells
    (:func:`grained`), where equal SADs are everywhere.
    ``frame_sad_surfaces``, ``select_minima`` and
    ``refine_half_pel_batch`` against the dense surface oracle and the
    per-block minimum and half-pel step, block for block."""

    @pytest.mark.parametrize("p", [7, 15])
    @pytest.mark.parametrize("grain", [4, 8])
    @pytest.mark.parametrize("maker", [random_plane, tie_heavy_plane])
    def test_fsbm_chain_matches_oracles(self, maker, grain, p):
        cur, ref = grained(maker(90 + grain), grain), grained(maker(91 + grain), grain)
        s = 16
        plane = ReferencePlane(ref)
        surfaces = frame_sad_surfaces(cur, plane, p)
        np.testing.assert_array_equal(surfaces, reference.frame_sad_surfaces(cur, ref, p))
        dx, dy, sads, positions = select_minima(surfaces)
        hx, hy, hsads, extra = refine_half_pel_batch(cur, plane, dx, dy, sads, p)
        for r in range(3):
            for c in range(4):
                block_sads, window = full_search_sads(cur, ref, r * s, c * s, p)
                anchor, best = select_minimum(block_sads, window)
                assert (MotionVector(2 * int(dx[r, c]), 2 * int(dy[r, c])), int(sads[r, c])) == (
                    anchor,
                    best,
                )
                assert int(positions[r, c]) == window.num_positions
                block = cur[r * s : (r + 1) * s, c * s : (c + 1) * s]
                mv, sad_hp, evaluated = refine_half_pel(
                    block, plane, r * s, c * s, anchor, best, window
                )
                assert MotionVector(int(hx[r, c]), int(hy[r, c])) == mv
                assert (int(hsads[r, c]), int(extra[r, c])) == (sad_hp, evaluated)


# -- evaluate_candidates_batch ------------------------------------------


class TestEvaluateCandidatesBatch:
    def test_matches_sequential_evaluator(self):
        ref = textured_plane(48, 64, seed=40)
        cur = shifted_plane(ref, 1, -2)
        window = SearchWindow(-6, 6, -6, 6)
        cands = [(-6, -6), (0, 0), (3, -2), (6, 6), (-1, 4)]
        seq = CandidateEvaluator(cur[16:32, 16:32], ReferencePlane(ref), 16, 16, window)
        for dx, dy in cands:
            seq.evaluate(dx, dy)
        arr = np.array(cands)
        sads = evaluate_candidates_batch(
            cur[16:32, 16:32],
            ref,
            np.array([0]),
            np.array([0]),
            (16 + arr[:, 1])[None, :],
            (16 + arr[:, 0])[None, :],
        )[0]
        for (dx, dy), value in zip(cands, sads.tolist()):
            assert value == seq._cache[(dx, dy)]

    def test_out_of_plane_marked_invalid(self):
        ref = random_plane(50, 32, 32)
        sads = evaluate_candidates_batch(
            ref, ref, np.array([0]), np.array([0]),
            np.array([[-1, 0, 17]]), np.array([[0, 0, 0]]),
        )[0]
        assert sads[0] == -1 and sads[2] == -1 and sads[1] == 0

    def test_frame_grid_matches_per_candidate_sad(self):
        """Every block of a frame against one displacement set: each
        value is :func:`repro.me.metrics.sad` of the candidate, and
        ``-1`` exactly where the candidate block leaves the plane."""
        h, w, s = 80, 96, 16
        ref = textured_plane(h, w, seed=42)
        cur = shifted_plane(ref, 2, -1)
        offsets = ((0, 0), (-2, 1), (3, -4), (8, 8), (-15, 0))
        rows, cols = h // s, w // s
        block_ys = np.repeat(np.arange(rows) * s, cols)
        block_xs = np.tile(np.arange(cols) * s, rows)
        dxs = np.array([[dx for dx, _ in offsets]] * (rows * cols))
        dys = np.array([[dy for _, dy in offsets]] * (rows * cols))
        out = evaluate_candidates_batch(cur, ref, block_ys, block_xs, dys, dxs)
        assert out.shape == (rows * cols, len(offsets))
        for i, (y, x) in enumerate(zip(block_ys.tolist(), block_xs.tolist())):
            for k, (dx, dy) in enumerate(offsets):
                y0, x0 = y + dy, x + dx
                if 0 <= y0 <= h - s and 0 <= x0 <= w - s:
                    expected = sad(cur[y : y + s, x : x + s], ref[y0 : y0 + s, x0 : x0 + s])
                    assert out[i, k] == expected
                else:
                    assert out[i, k] == -1

    def test_raw_reference_equivalent_to_plane(self):
        ref = textured_plane(48, 64, seed=43)
        cur = shifted_plane(ref, 1, 1)
        args = (np.array([0, 16, 32]), np.array([16, 0, 48]), np.array([[0, 1, -8]] * 3), np.array([[3, 0, 1]] * 3))
        assert np.array_equal(
            evaluate_candidates_batch(cur, ref, *args),
            evaluate_candidates_batch(cur, ReferencePlane.wrap(ref), *args),
        )

    def test_evaluate_many_identical_to_sequential(self):
        """evaluate_many must leave the evaluator in exactly the state a
        sequential loop produces (cache, best, count)."""
        ref = tie_heavy_plane(60)
        cur = tie_heavy_plane(61)
        window = SearchWindow(-7, 7, -7, 7)
        cands = [(0, 0), (2, 2), (-2, 2), (2, -2), (-2, -2), (0, 0), (7, 7), (1, 0)]
        plane = ReferencePlane(ref)
        batched = CandidateEvaluator(cur[16:32, 16:32], plane, 16, 16, window)
        batched.evaluate_many(cands)
        sequential = CandidateEvaluator(cur[16:32, 16:32], plane, 16, 16, window)
        for dx, dy in cands:
            sequential.evaluate(dx, dy)
        assert batched._cache == sequential._cache
        assert batched.positions == sequential.positions
        assert batched.best() == sequential.best()

    def test_plane_accepted_as_reference(self):
        ref = textured_plane(48, 64, seed=41)
        plane = ReferencePlane(ref)
        ev = CandidateEvaluator(ref[16:32, 16:32], plane, 16, 16, SearchWindow(-2, 2, -2, 2))
        assert ev.evaluate(0, 0) == 0


# -- golden equivalence: estimators and encoder --------------------------


def fields_identical(a, b) -> bool:
    return bool(np.array_equal(a.hx, b.hx) and np.array_equal(a.hy, b.hy))


class TestGoldenEstimators:
    @pytest.mark.parametrize("half_pel", [True, False])
    @pytest.mark.parametrize("p", [7, 15])
    @pytest.mark.parametrize(
        "maker", [lambda: textured_plane(48, 64, seed=70), lambda: tie_heavy_plane(71)]
    )
    def test_fsbm_batch_identical_to_per_block(self, half_pel, p, maker, monkeypatch):
        """The tentpole guarantee: FSBM via the engine's estimate_frame
        emits bit-identical motion fields, SADs and SearchStats position
        counts to the per-block oracle — with the half-pel stage and on
        the integer-pel stage alone (:func:`integer_pel`)."""
        if not half_pel:
            integer_pel(monkeypatch)
        ref = maker()
        cur = shifted_plane(ref, 1, 2)
        est = FullSearchEstimator(p=p)
        field_b, stats_b = est.estimate(cur, ref)
        field_s, stats_s, _ = reference.estimate_motion(est, cur, ref)
        assert fields_identical(field_b, field_s)
        assert stats_b.positions == stats_s.positions
        assert stats_b.blocks == stats_s.blocks
        assert stats_b.full_search_blocks == stats_s.full_search_blocks

    def test_fsbm_batch_on_synthetic_sequence(self):
        """Same guarantee on the paper's synthetic content (real motion,
        flat and textured regions in one frame)."""
        from repro.video.synthesis.sequences import make_sequence

        seq = make_sequence("foreman", frames=3, seed=0)
        est = FullSearchEstimator(p=15)
        for i in range(1, len(seq)):
            field_b, stats_b = est.estimate(seq[i].y, seq[i - 1].y)
            field_s, stats_s, _ = reference.estimate_motion(est, seq[i].y, seq[i - 1].y)
            assert fields_identical(field_b, field_s)
            assert stats_b.positions == stats_s.positions

    @pytest.mark.parametrize("name", sorted(available_estimators()))
    def test_every_estimator_unchanged_by_engine(self, name):
        """Every registered search's frame driver (batched surfaces,
        pattern-search lockstep, sweeps) matches the per-block oracle
        decision for decision."""
        ref = textured_plane(48, 64, seed=80)
        cur = shifted_plane(ref, -1, 2)
        est = create_estimator(name, p=7)
        field_on, stats_on = est.estimate(cur, ref)
        field_off, stats_off, _ = reference.estimate_motion(est, cur, ref)
        assert fields_identical(field_on, field_off)
        assert stats_on.positions == stats_off.positions
        assert stats_on.decisions == stats_off.decisions

    def test_encoder_bitstream_unchanged_by_engine(self, monkeypatch):
        """End to end: the encoder emits byte-identical bitstreams
        whether FSBM's frame driver or the per-block oracle decides."""
        from repro.codec.encoder import encode_sequence
        from repro.video.synthesis.sequences import make_sequence

        seq = make_sequence("miss_america", frames=3, seed=1)
        on = encode_sequence(seq, qp=16, estimator="fsbm")
        monkeypatch.setattr(
            FullSearchEstimator,
            "estimate_frame",
            lambda est, cur, ref, _plane, prev, qp: reference.estimate_motion(est, cur, ref, prev, qp)[:2],
        )
        off = encode_sequence(seq, qp=16, estimator="fsbm")
        assert on.bitstream == off.bitstream
        assert on.mean_psnr_y == off.mean_psnr_y
        assert on.search_stats.positions == off.search_stats.positions

    def test_activity_map_matches_scalar_intra_sad(self):
        """The Fig. 4 rig now takes Intra_SAD from the vectorized
        activity map; it must agree with the scalar definition on every
        block (same float64 arithmetic, same values)."""
        from repro.me.metrics import block_activity_map, intra_sad

        plane = textured_plane(48, 64, seed=90)
        amap = block_activity_map(plane)
        for r in range(3):
            for c in range(4):
                scalar = intra_sad(plane[16 * r : 16 * r + 16, 16 * c : 16 * c + 16])
                assert amap[r, c] == pytest.approx(scalar, rel=1e-12, abs=1e-9)
