"""The Adaptive Cost Block Matching estimator (Section 3.2).

Per 16x16 macroblock:

1. Compute ``Intra_SAD`` of the reference (current-frame) block.
2. Run the predictive search (PBM, [9]) → half-pel vector +
   ``SAD_PBM``.
3. Classify with the two acceptance conditions
   (:func:`repro.core.classifier.classify_block`).
4. If critical, run the full search (with its own half-pel step) and
   keep the full-search vector only when its SAD is strictly lower
   than ``SAD_PBM``: on a tie the predictive vector stays.

Cost accounting follows the paper: the positions charged to a block are
the predictive search's evaluations plus — only on critical blocks —
the full search's.  The Intra_SAD computation itself touches only the
current block and is not a candidate position.

:meth:`ACBMEstimator.search_block` is the per-block definition, which
only the oracle (:func:`repro.reference.estimate_motion`) walks in
raster order.  The frame driver, :meth:`ACBMEstimator.estimate_frame`,
runs the same four steps as whole-frame sweeps
(:func:`repro.me.predictive.sweep_frame`) and matches the raster walk
byte for byte, for the reasons the
:mod:`repro.me.predictive` docstring gives: the predictive stage's best
is the lexicographic minimum of ``(SAD, max(|dx|, |dy|), |dy|, |dx|,
dy, dx)`` over the visited set, and a block reads the field being built
only at its left, top-left, top and top-right neighbours, so the sweeps
converge to the raster walk's unique fixed point.  ``Intra_SAD`` is
exact in float64 in any summation order (every term is a multiple of
2⁻⁸ and bounded), so the classifier sees identical inputs.  The full
search does not depend on the field: as the paper prescribes, it runs
on the critical blocks only, each one once per frame — every sweep
hands the blocks it newly classifies critical to the block-list surface
kernel (:func:`repro.me.engine.block_sad_surfaces`), whatever their
count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.classifier import (
    CRITICAL_CODE,
    DECISIONS,
    BlockDecision,
    classify_block,
    classify_blocks,
)
from repro.core.parameters import ACBMParameters
from repro.me.engine.kernels import block_sad_surfaces, refine_half_pel_batch, select_minima
from repro.me.engine.reference_plane import ReferencePlane
from repro.me.estimator import BlockContext, MotionEstimator, register_estimator
from repro.me.full_search import full_search_sads, select_minimum
from repro.me.metrics import block_activity_map, intra_sad
from repro.me.predictive import PredictiveEstimator, SweepResult, initial_guess, sweep_frame
from repro.me.stats import SearchStats
from repro.me.subpel import refine_half_pel
from repro.me.types import BlockResult, MotionField, MotionVector
from repro.obs import metrics
from repro.video.frame import MACROBLOCK_SIZE

_MET_CRITICAL = metrics.counter("me.acbm.critical")
_MET_FS_WINS = metrics.counter("me.acbm.fs_wins")

_DECISION_VALUES = np.array([d.value for d in DECISIONS])


@dataclass(frozen=True)
class ACBMBlockResult(BlockResult):
    """BlockResult enriched with the classifier verdict."""

    decision: str = BlockDecision.CRITICAL.value
    intra_sad: float = 0.0
    sad_pbm: int = 0


@register_estimator("acbm")
class ACBMEstimator(MotionEstimator):
    """Adaptive Cost Block Matching — the paper's proposed algorithm.

    Parameters
    ----------
    p:
        As in :class:`repro.me.estimator.MotionEstimator`; the paper
        evaluates p=15.
    params:
        α/β/γ configuration; defaults to the paper's tuned values.

    A critical block takes the full-search vector only when its SAD is
    strictly lower than the predictive one's.

    The frame driver (:meth:`sweep`) surfaces only the critical blocks,
    each once per frame, through the block-list kernel;
    :meth:`search_block` runs the per-block SAD map and stays the
    definition the driver is checked against.

    >>> est = ACBMEstimator()
    >>> (est.p, est.params.alpha, est.params.beta, est.params.gamma)
    (15, 1000.0, 8.0, 0.25)
    """

    def __init__(self, p: int = 15, params: ACBMParameters | None = None) -> None:
        super().__init__(p=p)
        self.params = params if params is not None else ACBMParameters.paper_defaults()
        # The embedded predictive stage: SAD_PBM is the (half-pel) SAD
        # of the vector PBM would actually deliver.
        self._pbm = PredictiveEstimator(p=p)

    def search_block(self, ctx: BlockContext) -> BlockResult:
        activity = intra_sad(ctx.block)
        pbm_result = self._pbm.search_block(ctx)
        decision = classify_block(activity, pbm_result.sad, ctx.qp, self.params)
        mv: MotionVector = pbm_result.mv
        best_sad = pbm_result.sad
        positions = pbm_result.positions
        used_full_search = False
        if not decision.accepts_pbm:
            _MET_CRITICAL.inc()
            fs_sads, window = full_search_sads(
                ctx.current, ctx.reference, ctx.block_y, ctx.block_x, self.p
            )
            fs_mv, fs_sad, extra = refine_half_pel(
                ctx.block, ctx.ref_plane, ctx.block_y, ctx.block_x,
                *select_minimum(fs_sads, window), window,
            )
            positions += window.num_positions + extra
            used_full_search = True
            if fs_sad < best_sad:
                _MET_FS_WINS.inc()
                mv, best_sad = fs_mv, fs_sad
        return ACBMBlockResult(
            mv=mv,
            sad=best_sad,
            positions=positions,
            used_full_search=used_full_search,
            decision=decision.value,
            intra_sad=activity,
            sad_pbm=pbm_result.sad,
        )

    def sweep(
        self,
        current: np.ndarray,
        plane: ReferencePlane,
        prev_field: MotionField | None,
        qp: int,
    ) -> SweepResult:
        """:meth:`search_block`'s four steps for every block as
        whole-frame sweeps to the raster walk's fixed point (module
        docstring)."""
        rows, cols = current.shape[0] // MACROBLOCK_SIZE, current.shape[1] // MACROBLOCK_SIZE
        activity = block_activity_map(current).reshape(-1)
        predictive = self._pbm.frame_search(current, plane, prev_field)
        full_search = _CriticalFullSearch(self, current, plane)

        def step(idx, hx, hy):
            pbm_hx, pbm_hy, pbm_sad, positions = predictive(idx, hx, hy)
            codes = classify_blocks(activity[idx], pbm_sad, qp, self.params)
            critical = codes == CRITICAL_CODE
            fs_won = np.zeros(idx.size, dtype=bool)
            out_hx, out_hy, out_sad = pbm_hx.copy(), pbm_hy.copy(), pbm_sad.copy()
            if critical.any():
                fs_hx, fs_hy, fs_sad, fs_positions = full_search(idx[critical])
                positions[critical] += fs_positions
                wins = fs_sad < pbm_sad[critical]
                fs_won[critical] = wins
                out_hx[fs_won], out_hy[fs_won], out_sad[fs_won] = fs_hx[wins], fs_hy[wins], fs_sad[wins]
            return out_hx, out_hy, out_sad, positions, codes, fs_won

        (hx, hy, sad, positions, codes, fs_won), sweeps = sweep_frame(
            rows, cols, initial_guess(prev_field, rows, cols), step
        )
        critical = codes == CRITICAL_CODE
        _MET_CRITICAL.inc(int(np.count_nonzero(critical)))
        _MET_FS_WINS.inc(int(np.count_nonzero(fs_won)))
        return SweepResult(
            *(a.reshape(rows, cols) for a in (hx, hy, sad, positions)),
            sweeps=sweeps,
            used_full_search=critical.reshape(rows, cols),
            decisions=_DECISION_VALUES[codes].reshape(rows, cols),
        )

    def estimate_frame(
        self,
        current: np.ndarray,
        reference: np.ndarray,
        plane: ReferencePlane,
        prev_field: MotionField | None,
        qp: int,
    ) -> tuple[MotionField, SearchStats]:
        """:meth:`sweep` as a field and stats."""
        return self.sweep(current, plane, prev_field, qp).motion()


class _CriticalFullSearch:
    """One frame's full-search results for ACBM's critical blocks.

    The full search does not read the motion field, so each block is
    surfaced once per frame, however many sweeps classify it critical:
    a call runs the block-list kernel (:func:`block_sad_surfaces`) on
    just the blocks no earlier call surfaced.  Calling it with flat
    block indices returns their half-pel ``(hx, hy, sad, positions)``.
    """

    def __init__(self, est: ACBMEstimator, current: np.ndarray, plane: ReferencePlane) -> None:
        self.est = est
        self.current = current
        self.plane = plane
        self.cols = current.shape[1] // MACROBLOCK_SIZE
        n = (current.shape[0] // MACROBLOCK_SIZE) * self.cols
        self.results = np.zeros((4, n), dtype=np.int64)
        self.done = np.zeros(n, dtype=bool)

    def __call__(self, idx: np.ndarray) -> np.ndarray:
        todo = idx[~self.done[idx]]
        if todo.size:
            self._compute(todo)
        return self.results[:, idx]

    def _compute(self, todo: np.ndarray) -> None:
        p = self.est.p
        blocks = np.divmod(todo, self.cols)
        dx, dy, sads, positions = select_minima(
            block_sad_surfaces(self.current, self.plane, *blocks, p)
        )
        hx, hy, sads, extra = refine_half_pel_batch(
            self.current, self.plane, dx, dy, sads, p, blocks=blocks
        )
        self.results[:, todo] = hx, hy, sads, positions + extra
        self.done[todo] = True
