"""Golden tests for the fast searches' whole-frame lockstep.

The contract: :meth:`PatternSearchEstimator.lockstep` — every stage of
TSS, NTSS, 4SS, DS, HEXBS and CDS scored for all macroblocks in one
:class:`repro.me.candidates.BatchEvaluator` gather — gives every block
exactly the ``(hx, hy, sad, positions)`` that raster-order
:meth:`search_block` calls give (:func:`repro.reference.estimate_motion`),
and :meth:`estimate` reports the same field and :class:`SearchStats`.
Checked over p, the recentring bounds, the integer-pel stages alone and
planes whose edge and corner windows clamp: foreman pairs, and two- and
three-level planes piecewise constant over 8- or 16-pixel cells (SAD
ties everywhere); on hypothesis-drawn random and quantised planes, with
p up to the envelope edge (31).  The bounds are class constants, pinned
here through test subclasses (:func:`pinned`); the integer-pel cases
swap the half-pel stage for the identity (:func:`integer_pel`).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference
from repro.me.engine.reference_plane import ReferencePlane
from repro.me.estimator import PatternSearchEstimator, create_estimator
from repro.video.frame import FrameGeometry
from repro.video.synthesis.sequences import make_sequence

from .conftest import backend_matrix, grained, integer_pel, pinned

kernel_backend = backend_matrix()

#: Every pattern search with the recentring bounds worth pinning: 4SS's
#: classic 2 and no recentring at all; DS/HEXBS/CDS's single step and
#: their default walk.
SEARCHES = (
    ("tss", {}),
    ("ntss", {}),
    ("fss", {"max_recentres": 0}),
    ("fss", {"max_recentres": 2}),
    ("ds", {"max_recentres": 1}),
    ("ds", {"max_recentres": 32}),
    ("hexbs", {"max_recentres": 1}),
    ("hexbs", {"max_recentres": 32}),
    ("cds", {"max_recentres": 1}),
    ("cds", {"max_recentres": 32}),
)
SEARCH_IDS = [name + "".join(f"-{v}" for v in kw.values()) for name, kw in SEARCHES]


def pattern_search(search, p):
    """The registered search with its recentring bound pinned."""
    name, constants = search
    cls = type(create_estimator(name))
    return pinned(cls, **constants)(p=p)


@pytest.fixture(scope="module")
def frame_pairs():
    """A 96x80 and a 48x64 foreman pair: every macroblock of the small
    plane sits on an edge, so most windows clamp."""
    pairs = []
    for width, height in ((96, 80), (48, 64)):
        seq = make_sequence("foreman", frames=2, seed=4, geometry=FrameGeometry(width, height))
        pairs.append((seq[1].y, seq[0].y))
    return pairs


def tie_pairs(grain):
    """A two-level and a three-level 48x64 pair, each plane piecewise
    constant over ``grain``-pixel cells (:func:`grained`): at 16 a
    macroblock is one level, at 8 it spans four cells."""
    rng = np.random.default_rng(grain)
    pairs = []
    for levels in (2, 3):
        step = 255 // (levels - 1)
        cur, ref = (
            grained((rng.integers(0, levels, (48, 64)) * step).astype(np.uint8), grain)
            for _ in range(2)
        )
        pairs.append((cur, ref))
    return pairs


def oracle_blocks(est, cur, ref):
    """Per-block ``(hx, hy, sad, positions)`` and stats of the raster walk."""
    _, stats, blocks = reference.estimate_motion(est, cur, ref)
    return [(b.mv.hx, b.mv.hy, b.sad, b.positions) for b in blocks], stats


def lockstep_blocks(est, cur, ref):
    grids = est.lockstep(cur, ReferencePlane.wrap(ref))
    return list(zip(*(g.ravel().tolist() for g in grids)))


def stats_tuple(stats):
    return (stats.blocks, stats.positions, stats.full_search_blocks, stats.decisions)


def assert_matches_oracle(est, cur, ref):
    expected, oracle_stats = oracle_blocks(est, cur, ref)
    assert lockstep_blocks(est, cur, ref) == expected
    field, stats = est.estimate(cur, ref)
    hx, hy = field.hx, field.hy
    assert list(zip(hx.ravel().tolist(), hy.ravel().tolist())) == [b[:2] for b in expected]
    assert stats_tuple(stats) == stats_tuple(oracle_stats)


@pytest.mark.parametrize("half_pel", [True, False])
@pytest.mark.parametrize("grain", [8, 16])
@pytest.mark.parametrize("p", [1, 2, 3, 7, 15, 31])
@pytest.mark.parametrize("search", SEARCHES, ids=SEARCH_IDS)
def test_lockstep_matches_raster_walk(frame_pairs, search, p, grain, half_pel, monkeypatch):
    """The foreman pairs and the ``grain``-cell tie pairs."""
    if not half_pel:
        integer_pel(monkeypatch)
    est = pattern_search(search, p)
    for cur, ref in frame_pairs + tie_pairs(grain):
        assert_matches_oracle(est, cur, ref)


@settings(max_examples=40, deadline=None)
@given(
    search=st.sampled_from(SEARCHES),
    p=st.sampled_from([1, 2, 4, 7, 15, 31]),
    grain=st.sampled_from([1, 8, 16]),
    half_pel=st.booleans(),
    levels=st.sampled_from([2, 3, 256]),
    seed=st.integers(0, 2**16),
)
def test_lockstep_matches_on_random_planes(search, p, grain, half_pel, levels, seed):
    """Few grey levels, and cells coarser than a pixel, make whole
    neighbourhoods tie on SAD, so every block's best is decided by the
    shortest-vector key."""
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(2, 6, size=2)
    shape = (int(rows) * 16, int(cols) * 16)
    step = 255 // (levels - 1)
    cur = grained((rng.integers(0, levels, shape) * step).astype(np.uint8), grain)
    ref = grained((rng.integers(0, levels, shape) * step).astype(np.uint8), grain)
    with pytest.MonkeyPatch.context() as monkeypatch:
        if not half_pel:
            integer_pel(monkeypatch)
        assert_matches_oracle(pattern_search(search, p), cur, ref)


@pytest.mark.parametrize("search", SEARCHES, ids=SEARCH_IDS)
def test_estimate_never_walks_blocks_in_envelope(frame_pairs, search, monkeypatch):
    """Inside the envelope the frame path serves every block:
    ``search_block`` is never called."""
    est = pattern_search(search, 15)
    cur, ref = frame_pairs[0]
    expected, oracle_stats = oracle_blocks(est, cur, ref)

    def forbidden(ctx):
        raise AssertionError("search_block called on the frame path")

    monkeypatch.setattr(est, "search_block", forbidden)
    field, stats = est.estimate(cur, ref)
    hx, hy = field.hx, field.hy
    assert list(zip(hx.ravel().tolist(), hy.ravel().tolist())) == [b[:2] for b in expected]
    assert stats_tuple(stats) == stats_tuple(oracle_stats)


def test_every_pattern_search_is_registered():
    from repro.me.estimator import available_estimators

    pattern = {
        name
        for name in available_estimators()
        if isinstance(create_estimator(name), PatternSearchEstimator)
    }
    assert pattern == {name for name, _ in SEARCHES}
