"""Microbenchmarks of the hot kernels (not a paper table).

Timed with pytest-benchmark's normal statistics (multiple rounds) so
regressions in the vectorized SAD map, the frame-level engine kernels,
the batched DCT or the encoder inner loop are visible.  Three speed
gates: the batched FSBM frame path against the per-block ME oracle, and
the block-list surface kernel on a subset of blocks against the same
kernel on every block (critical-only full search must pay for what it
surfaces) and against per-block SAD maps (no per-block path is worth
keeping for a handful of critical blocks).
"""

import numpy as np
import pytest

from repro.codec.dct import forward_dct, inverse_dct
from repro.me.engine import ReferencePlane, block_sad_surfaces, frame_sad_surfaces
from repro.me.estimator import BlockContext
from repro.me.full_search import FullSearchEstimator, full_search_sads
from repro.me.metrics import sad_map
from repro.me.types import MotionField
from repro.reference import estimate_motion

from .conftest import best_of


def _cif_planes(seed: int = 0):
    rng = np.random.default_rng(seed)
    current = rng.integers(0, 256, (288, 352), dtype=np.uint8)
    reference = np.clip(
        current.astype(np.int16) + rng.integers(-6, 7, current.shape), 0, 255
    ).astype(np.uint8)
    return current, reference


@pytest.fixture(scope="module")
def planes():
    rng = np.random.default_rng(0)
    current = rng.integers(0, 256, (144, 176), dtype=np.uint8)
    reference = np.clip(
        current.astype(np.int16) + rng.integers(-6, 7, current.shape), 0, 255
    ).astype(np.uint8)
    return current, reference


def test_sad_map_full_window(benchmark, planes):
    """One macroblock against a full ±15 window: the FSBM inner kernel
    (961 SADs of 256 pixels each)."""
    current, reference = planes
    block = current[64:80, 80:96]
    window = reference[49:111, 65:127]
    result = benchmark(sad_map, block, window)
    assert result.shape == (47, 47)


def test_fsbm_block_search(benchmark, planes):
    """Full FSBM block decision including half-pel refinement."""
    current, reference = planes
    est = FullSearchEstimator(p=15)
    ctx = BlockContext(
        current, reference, 4, 5, MotionField.zeros(9, 11), None, 16, ReferencePlane(reference)
    )
    result = benchmark(est.search_block, ctx)
    assert result.positions == 969


def test_frame_sad_surfaces_kernel(benchmark, planes):
    """The engine's block-list SAD-surface kernel over every block of
    one QCIF frame: each macroblock's full ±15 surface in one batched
    pass."""
    current, reference = planes
    result = benchmark(frame_sad_surfaces, current, reference, 15)
    assert result.shape == (9, 11, 31, 31)


def test_fsbm_frame_estimate_batched(benchmark, planes):
    """Full FSBM frame estimation through the engine's estimate_frame
    (surfaces + vectorized minima + batched half-pel refinement)."""
    current, reference = planes
    est = FullSearchEstimator(p=15)
    field, stats = benchmark(est.estimate, current, reference)
    assert stats.blocks == 99


def test_fsbm_frame_estimate_per_block(benchmark, planes):
    """Per-block FSBM through the ME oracle
    (:func:`repro.reference.estimate_motion`) — the baseline the
    batched path is measured against."""
    current, reference = planes
    est = FullSearchEstimator(p=15)
    field, stats, _ = benchmark.pedantic(
        estimate_motion, args=(est, current, reference), rounds=3, iterations=1
    )
    assert stats.blocks == 99


def test_fsbm_frame_speedup_batch_vs_per_block():
    """The batched frame path must beat the per-block ME oracle by
    >= 2.4x (CIF, p=15, half-pel on; identical outputs are proven in
    tests/test_engine.py).  The per-candidate arithmetic is identical —
    the win is batching."""
    current, reference = _cif_planes()
    est = FullSearchEstimator(p=15)
    t_batched = best_of(lambda: est.estimate(current, reference), rounds=5)
    t_per_block = best_of(lambda: estimate_motion(est, current, reference), rounds=3)
    speedup = t_per_block / t_batched
    print(
        f"\nFSBM CIF frame estimation: per-block {t_per_block * 1000.0:.1f} ms, "
        f"batched {t_batched * 1000.0:.1f} ms -> {speedup:.2f}x"
    )
    assert speedup >= 2.4, f"batched frame path regressed: only {speedup:.2f}x"


def test_block_list_scales_with_blocks():
    """Surfacing every other CIF block must beat surfacing all of them
    by >= 1.4x: the kernel's cost follows the block count, which is
    what lets ACBM pay only for its critical blocks."""
    current, reference = _cif_planes()
    rows, cols = np.divmod(np.arange(396), 22)  # CIF: 18 x 22 blocks
    t_all = best_of(lambda: block_sad_surfaces(current, reference, rows, cols, 15), 5)
    t_half = best_of(
        lambda: block_sad_surfaces(current, reference, rows[::2], cols[::2], 15), 5
    )
    speedup = t_all / t_half
    print(
        f"\nCIF surfaces: all 396 blocks {t_all * 1000.0:.1f} ms, "
        f"every other block {t_half * 1000.0:.1f} ms -> {speedup:.2f}x"
    )
    assert speedup >= 1.4, f"block-list kernel does not scale with N: only {speedup:.2f}x"


def test_block_list_beats_per_block_maps():
    """Twelve blocks through the block-list kernel must beat twelve
    per-block ``full_search_sads`` maps by >= 1.2x — the evidence that
    frames with few critical blocks need no per-block path."""
    current, reference = _cif_planes()
    rows, cols = np.divmod(np.arange(0, 396, 33), 22)

    def per_block():
        for r, c in zip(rows.tolist(), cols.tolist()):
            full_search_sads(current, reference, r * 16, c * 16, 15)

    t_kernel = best_of(lambda: block_sad_surfaces(current, reference, rows, cols, 15), 7)
    t_maps = best_of(per_block, 7)
    speedup = t_maps / t_kernel
    print(
        f"\n12 CIF blocks: per-block maps {t_maps * 1000.0:.2f} ms, "
        f"block-list kernel {t_kernel * 1000.0:.2f} ms -> {speedup:.2f}x"
    )
    assert speedup >= 1.2, f"block-list kernel lost to per-block maps: only {speedup:.2f}x"


def test_batched_dct_round_trip(benchmark):
    """DCT+IDCT of a whole QCIF frame's worth of blocks (594 blocks:
    the per-frame transform load of the encoder)."""
    rng = np.random.default_rng(1)
    blocks = rng.normal(0, 30, (594, 8, 8))

    def run():
        return inverse_dct(forward_dct(blocks))

    out = benchmark(run)
    np.testing.assert_allclose(out, blocks, atol=1e-8)


def test_encoder_frame_throughput(benchmark, sequence_cache):
    """P-frame encode throughput with the cheap estimator (codec cost
    dominates here, not the search)."""
    from repro.codec.encoder import Encoder

    seq = sequence_cache["miss_america"][:3]
    encoder = Encoder(estimator="pbm", qp=16, keep_reconstruction=False)
    result = benchmark.pedantic(encoder.encode, args=(seq,), rounds=3, iterations=1)
    assert result.total_bits > 0
