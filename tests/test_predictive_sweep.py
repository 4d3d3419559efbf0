"""Golden tests for the whole-frame PBM/ACBM sweep driver.

The contract: :meth:`PredictiveEstimator.sweep` and
:meth:`ACBMEstimator.sweep` give every macroblock exactly the
``(hx, hy, sad, positions, decision, used_full_search)`` that
raster-order :meth:`search_block` calls give — the per-block search is
the definition, the sweep only computes its unique fixed point with
whole-frame array passes.  Checked on a fixed grid of synthesis
sequences and estimator settings, on hypothesis-drawn frames and
previous fields (odd half-pel components exercise the half-to-even
projection, out-of-window vectors the clamping), and on the encoder's
default path, which must never fall back to ``search_block``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference
from repro.codec.encoder import encode_sequence
from repro.codec.mv_coding import predict_mv, predict_mv_arrays
from repro.core.acbm import ACBMEstimator
from repro.core.classifier import DECISIONS, classify_block, classify_blocks
from repro.core.parameters import ACBMParameters
from repro.kernels import get_backend, set_backend
from repro.kernels.numba_backend import make_backend
from repro.me.engine.kernels import refine_half_pel_batch
from repro.me.engine.reference_plane import ReferencePlane
from repro.me.estimator import create_estimator
from repro.me.predictive import PredictiveEstimator, sweep_frame
from repro.me.types import MotionField, MotionVector
from repro.obs import metrics
from repro.video.frame import FrameGeometry
from repro.video.synthesis.sequences import make_sequence

from .conftest import backend_matrix, grained, integer_pel, pinned, shifted_plane, textured_plane

kernel_backend = backend_matrix()

GEOMETRY = FrameGeometry(96, 80)
PRESETS = ("miss_america", "carphone", "foreman", "table")
PARAMS = {
    "paper": ACBMParameters.paper_defaults(),
    "always": ACBMParameters.always_full_search(),
    "never": ACBMParameters.never_full_search(),
}


def raster_oracle(est, cur, ref, prev_field, qp):
    """Per-block results of the oracle's raster-order ``search_block``
    calls (:func:`repro.reference.estimate_motion`)."""
    _, _, blocks = reference.estimate_motion(est, cur, ref, prev_field, qp)
    return [
        (res.mv.hx, res.mv.hy, res.sad, res.positions, getattr(res, "decision", None), res.used_full_search)
        for res in blocks
    ]


def swept(est, cur, ref, prev_field, qp):
    """The same tuples from one :meth:`sweep`, asserting the sweep
    count stays within the wavefront bound."""
    plane = ReferencePlane.wrap(ref)
    res = est.sweep(cur, plane, prev_field, qp)
    rows, cols = res.hx.shape
    assert 1 <= res.sweeps <= cols + 2 * (rows - 1) + 1
    n = rows * cols
    decisions = res.decisions.ravel().tolist() if res.decisions is not None else [None] * n
    used = res.used_full_search.ravel().tolist() if res.used_full_search is not None else [False] * n
    return list(
        zip(
            res.hx.ravel().tolist(),
            res.hy.ravel().tolist(),
            res.sad.ravel().tolist(),
            res.positions.ravel().tolist(),
            decisions,
            used,
        )
    )


def pinned_acbm(refine_steps, **kwargs):
    """ACBM with its embedded PBM stage's ``refine_steps`` pinned
    (:func:`pinned`)."""
    est = ACBMEstimator(**kwargs)
    est._pbm = pinned(PredictiveEstimator, refine_steps=refine_steps)(p=est.p)
    return est


@pytest.fixture(scope="module", params=PRESETS)
def clip(request):
    """(reference, current, previous field) of one synthesis preset; the
    previous field is FSBM's half-pel field of the pair before, so it
    carries odd half-pel components."""
    seq = make_sequence(request.param, frames=3, seed=5, geometry=GEOMETRY)
    prev_field, _ = create_estimator("fsbm", p=15).estimate(seq[1].y, seq[0].y)
    return seq[1].y, seq[2].y, prev_field


class TestSweepGolden:
    @pytest.mark.parametrize("p", [7, 15])
    @pytest.mark.parametrize("half_pel", [False, True])
    @pytest.mark.parametrize("refine_steps", [0, 2])
    def test_pbm_matches_raster(self, clip, p, half_pel, refine_steps, monkeypatch):
        """PBM never reads Qp, so one Qp covers it."""
        ref, cur, prev_field = clip
        if not half_pel:
            integer_pel(monkeypatch)
        est = pinned(PredictiveEstimator, refine_steps=refine_steps)(p=p)
        for prev in (None, prev_field):
            assert swept(est, cur, ref, prev, 16) == raster_oracle(est, cur, ref, prev, 16)

    @pytest.mark.parametrize("qp", [2, 16, 31])
    @pytest.mark.parametrize("p", [7, 15])
    @pytest.mark.parametrize("params", sorted(PARAMS))
    def test_acbm_matches_raster(self, clip, qp, p, params):
        ref, cur, prev_field = clip
        for half_pel in (False, True):
            for refine_steps in (0, 2):
                est = pinned_acbm(refine_steps, p=p, params=PARAMS[params])
                with pytest.MonkeyPatch.context() as monkeypatch:
                    if not half_pel:
                        integer_pel(monkeypatch)
                    for prev in (None, prev_field):
                        assert swept(est, cur, ref, prev, qp) == raster_oracle(
                            est, cur, ref, prev, qp
                        ), (half_pel, refine_steps, prev is not None)


def random_frames(seed: int, rows: int, cols: int, grain: int, levels: int, shift):
    """A smooth textured reference, piecewise constant over
    ``grain``-pixel cells (:func:`grained`), the current frame a shifted
    and noisy copy; ``levels`` quantises both to stress SAD ties."""
    gen = np.random.default_rng(seed)
    ref = grained(textured_plane(rows * 16, cols * 16, seed=seed), grain)
    cur = shifted_plane(ref, *shift).astype(np.int64)
    cur += gen.integers(-6, 7, cur.shape)
    step = 256 // levels
    quantise = lambda a: (np.clip(a, 0, 255) // step * step).astype(np.uint8)  # noqa: E731
    return quantise(ref), quantise(cur)


half_pel_component = st.one_of(
    st.sampled_from([-3, -1, 0, 1, 3]),
    st.integers(min_value=-90, max_value=90),  # beyond any window: clamped
)


@st.composite
def sweep_cases(draw):
    grain = draw(st.sampled_from([1, 8, 16]))
    rows = draw(st.integers(min_value=1, max_value=5))
    cols = draw(st.integers(min_value=1, max_value=6))
    frames = random_frames(
        draw(st.integers(min_value=0, max_value=2**16)),
        rows,
        cols,
        grain,
        draw(st.sampled_from([2, 8, 256])),
        (draw(st.integers(-4, 4)), draw(st.integers(-4, 4))),
    )
    prev = None
    if draw(st.booleans()):
        comps = draw(st.lists(half_pel_component, min_size=2 * rows * cols, max_size=2 * rows * cols))
        prev = MotionField(
            np.array(comps[: rows * cols]).reshape(rows, cols),
            np.array(comps[rows * cols :]).reshape(rows, cols),
        )
    p = draw(st.integers(min_value=1, max_value=31))
    refine_steps = draw(st.integers(min_value=0, max_value=3))
    if draw(st.booleans()):
        est = pinned(PredictiveEstimator, refine_steps=refine_steps)(p=p)
    else:
        est = pinned_acbm(
            refine_steps,
            p=p,
            params=ACBMParameters(
                alpha=draw(st.floats(min_value=0, max_value=4000)),
                beta=draw(st.floats(min_value=0, max_value=10)),
                gamma=draw(st.floats(min_value=0, max_value=1)),
            ),
        )
    return est, frames, prev, draw(st.integers(min_value=1, max_value=31)), draw(st.booleans())


@given(sweep_cases())
@settings(max_examples=60, deadline=None)
def test_sweep_matches_raster_on_random_frames(case):
    est, (ref, cur), prev, qp, half_pel = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        if not half_pel:
            integer_pel(monkeypatch)
        assert swept(est, cur, ref, prev, qp) == raster_oracle(est, cur, ref, prev, qp)


class TestFrameDriver:
    @pytest.fixture(scope="class")
    def qcif_pair(self):
        seq = make_sequence("foreman", frames=3, seed=2)
        prev, _ = create_estimator("acbm").estimate(seq[1].y, seq[0].y)
        return seq[1].y, seq[2].y, prev

    @pytest.mark.parametrize("name", ["pbm", "acbm"])
    def test_estimate_never_calls_search_block(self, qcif_pair, monkeypatch, name):
        ref, cur, prev = qcif_pair
        expected = reference.estimate_motion(create_estimator(name), cur, ref, prev, qp=16)

        def forbidden(self, ctx):
            raise AssertionError("search_block called on the default path")

        monkeypatch.setattr(PredictiveEstimator, "search_block", forbidden)
        monkeypatch.setattr(ACBMEstimator, "search_block", forbidden)
        field, stats = create_estimator(name).estimate(cur, ref, prev, qp=16)
        assert np.array_equal(field.hx, expected[0].hx) and np.array_equal(field.hy, expected[0].hy)
        assert (stats.blocks, stats.positions, stats.full_search_blocks, stats.decisions) == (
            expected[1].blocks,
            expected[1].positions,
            expected[1].full_search_blocks,
            expected[1].decisions,
        )
        encode_sequence(make_sequence("carphone", frames=3, seed=1), qp=16, estimator=name)

    def test_raster_walk_and_sweep_count_alike(self, qcif_pair):
        """``me.acbm.critical`` / ``me.acbm.fs_wins`` count the same
        blocks whichever driver runs, and ``me.sweeps`` the sweeps."""
        ref, cur, prev = qcif_pair
        counters = [metrics.counter(n) for n in ("me.acbm.critical", "me.acbm.fs_wins", "me.sweeps")]

        def deltas(estimate):
            before = [c.value for c in counters]
            _, stats, *_ = estimate(ACBMEstimator(), cur, ref, prev, qp=16)
            return [c.value - b for c, b in zip(counters, before)], stats

        (crit_r, wins_r, sweeps_r), stats_r = deltas(reference.estimate_motion)
        (crit_s, wins_s, sweeps_s), stats_s = deltas(ACBMEstimator.estimate)
        assert crit_r == crit_s == stats_s.full_search_blocks == stats_r.full_search_blocks > 0
        assert wins_r == wins_s
        assert 0 < wins_s <= crit_s
        assert sweeps_r == 0
        res = ACBMEstimator().sweep(cur, ReferencePlane.wrap(ref), prev, 16)
        assert sweeps_s == res.sweeps >= 2

    def test_fs_blocks_counts_distinct_critical_blocks(self, monkeypatch):
        """``me.fs_blocks`` on an ACBM encode is the number of distinct
        blocks any sweep of a frame classified critical — each surfaced
        once — and never more than the frame's grid."""
        from repro.core import acbm as acbm_module

        asked = {}
        original = acbm_module._CriticalFullSearch.__call__

        def recording(fs, idx):
            asked.setdefault(id(fs), (fs, set()))[1].update(idx.tolist())
            return original(fs, idx)

        monkeypatch.setattr(acbm_module._CriticalFullSearch, "__call__", recording)
        counters = [metrics.counter(n) for n in ("me.fs_blocks", "me.acbm.critical")]
        before = [c.value for c in counters]
        seq = make_sequence("foreman", frames=4, seed=2)
        encode_sequence(seq, qp=16, estimator="acbm")
        fs_blocks, critical = (c.value - b for c, b in zip(counters, before))
        per_frame = [len(blocks) for _, blocks in asked.values()]
        assert len(per_frame) == 3  # one per P-frame
        assert fs_blocks == sum(per_frame) >= critical > 0
        assert max(per_frame) <= (seq[0].y.shape[0] // 16) * (seq[0].y.shape[1] // 16)

    def test_sim_backend_sweep_matches_raster(self):
        """The compiled kernels' bodies (run un-jitted) drive the sweep
        to the same per-block results."""
        ref = textured_plane(48, 64, seed=3)
        cur = shifted_plane(ref, 1, -2)
        prev = MotionField(np.full((3, 4), 3), np.full((3, 4), -1))
        est = ACBMEstimator(params=ACBMParameters(alpha=0, beta=0, gamma=0.02))
        expected = raster_oracle(est, cur, ref, prev, 12)
        pinned = get_backend()
        set_backend(make_backend(jit=False))
        try:
            assert swept(est, cur, ref, prev, 12) == expected
        finally:
            set_backend(pinned)


class TestSweepHelper:
    def test_causal_chain_reaches_raster_fixed_point(self):
        """Each block = 1 + max of its causal neighbours: the raster walk
        gives the wavefront index, which the sweeps must reproduce
        from any starting guess within the bound."""
        rows, cols = 4, 5

        def step(idx, hx, hy):
            pad = np.pad(hx, 1, constant_values=-1)
            r, c = np.divmod(idx, cols)
            nb = np.stack([pad[r + 1, c], pad[r, c], pad[r, c + 1], pad[r, c + 2]])
            return nb.max(axis=0) + 1, hy.ravel()[idx]

        r, c = np.divmod(np.arange(rows * cols), cols)
        for guess in (np.zeros((rows, cols)), np.full((rows, cols), 99)):
            (hx, _), sweeps = sweep_frame(rows, cols, (guess, np.zeros((rows, cols))), step)
            assert np.array_equal(hx, c + 2 * r)
            assert sweeps <= cols + 2 * (rows - 1) + 1

    def test_non_causal_neighbour_table_raises(self, monkeypatch):
        """With causal neighbours the dirty set moves one wavefront on
        per sweep, so the bound always holds.  A table listing a
        non-causal neighbour (the right one) lets changes flow back;
        a step that never settles then trips the bound instead of
        looping."""
        import repro.me.predictive as predictive

        monkeypatch.setattr(
            predictive, "SPATIAL_NEIGHBOURS", predictive.SPATIAL_NEIGHBOURS + ((0, 1),)
        )

        def step(idx, hx, hy):
            return hx.ravel()[idx] + 1, hy.ravel()[idx]

        zeros = np.zeros((3, 4))
        with pytest.raises(RuntimeError, match="did not settle within 9 sweeps"):
            sweep_frame(3, 4, (zeros, zeros), step)


class TestVectorizedTwins:
    def test_predict_mv_arrays_matches_scalar(self):
        gen = np.random.default_rng(9)
        hx, hy = gen.integers(-40, 41, (2, 4, 5))
        field = MotionField(hx, hy)
        r, c = np.divmod(np.arange(20), 5)
        px, py = predict_mv_arrays(hx, hy, r, c)
        for i in range(20):
            assert MotionVector(int(px[i]), int(py[i])) == predict_mv(field, r[i], c[i])

    def test_classify_blocks_matches_scalar(self):
        gen = np.random.default_rng(10)
        intra = gen.integers(0, 20000, 200) / 256
        sad_pbm = gen.integers(0, 9000, 200)
        for params in PARAMS.values():
            codes = classify_blocks(intra, sad_pbm, 13, params)
            for a, b, k in zip(intra.tolist(), sad_pbm.tolist(), codes.tolist()):
                assert DECISIONS[k] is classify_block(a, b, 13, params)

    def test_refine_half_pel_subset_matches_grid(self):
        ref = textured_plane(48, 80, seed=11)
        cur = shifted_plane(ref, 1, 1)
        plane = ReferencePlane.wrap(ref)
        gen = np.random.default_rng(12)
        dx, dy = gen.integers(-3, 4, (2, 3, 5))
        sads = gen.integers(0, 5000, (3, 5))
        grid = refine_half_pel_batch(cur, plane, dx, dy, sads, 7)
        pick = np.array([13, 0, 7, 4])
        r, c = np.divmod(pick, 5)
        subset = refine_half_pel_batch(
            cur, plane, dx[r, c], dy[r, c], sads[r, c], 7, blocks=(r, c)
        )
        for whole, part in zip(grid, subset):
            assert np.array_equal(whole[r, c], part)
