"""Predictive block matching (PBM), Section 2.2 of the paper.

Follows the complexity-bounded scheme of Chimienti et al. [9] that the
paper plugs into ACBM:

1. Gather candidate predictors from the spatio-temporal neighbourhood
   of Fig. 2: the already-computed spatial neighbours in the current
   frame (left, top-left, top, top-right — ``mv1t..mv4t``), the
   collocated vector and its *causal-future* neighbours from the
   previous frame's field (``mv0t-1, mv5t-1, mv7t-1, mv8t-1``), plus
   the zero vector.
2. Evaluate the SAD of each distinct predictor (at integer precision)
   and keep the minimum.
3. Refine: a greedy ±1 integer-pel descent around the winner, bounded
   at :attr:`PredictiveEstimator.refine_steps` (2) recentrings, then
   the standard 8-neighbour half-pel step.

The whole search touches a handful of positions per block — the
paper's "extremely low computational cost" — but inherits the failure
mode ACBM exists to fix: on textured or erratically moving content all
predictors can sit in the same wrong valley.

One definition, one frame path.  :meth:`PredictiveEstimator.search_block`
is the definition: one macroblock, one
:class:`repro.me.candidates.CandidateEvaluator`, called in raster order
only by the oracle, :func:`repro.reference.estimate_motion`.
:meth:`PredictiveEstimator.estimate_frame` computes the same field with
a handful of whole-frame array passes (:func:`sweep_frame`, shared with
ACBM).  Two facts make that exact:

* **Tie-break chain.**  The evaluator's best is the lexicographic
  minimum of ``(SAD, max(|dx|, |dy|), |dy|, |dx|, dy, dx)`` over the
  distinct positions visited — the key orders every displacement
  totally — so the order in which candidates are scored never matters,
  only the visited set, and duplicate predictors change nothing.  The
  half-pel step *is* order-dependent (strict improvement in
  :data:`repro.me.subpel.HALF_PEL_NEIGHBOURS` order);
  :func:`repro.me.engine.refine_half_pel_batch` replays that order.
* **Unique fixed point.**  Block ``(r, c)`` reads the field being built
  only at :data:`SPATIAL_NEIGHBOURS` — ``(r, c-1)``, ``(r-1, c-1)``,
  ``(r-1, c)``, ``(r-1, c+1)`` — all on earlier wavefronts ``c + 2r``.
  The causal system therefore has exactly one solution, and it is the
  raster walk's.  Each sweep recomputes the blocks whose inputs changed
  from the previous sweep's field; after sweep ``k`` every wavefront
  below ``k`` is final, so at most ``cols + 2(rows - 1)`` sweeps reach
  the raster walk's field and one more finds nothing to change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.me.candidates import UNIT_RING, BatchEvaluator, CandidateEvaluator
from repro.me.engine.reference_plane import ReferencePlane
from repro.me.estimator import BlockContext, MotionEstimator, register_estimator
from repro.me.search_window import clamped_window
from repro.me.stats import SearchStats
from repro.me.subpel import refine_half_pel
from repro.me.types import BlockResult, MotionField, MotionVector
from repro.obs import metrics
from repro.video.frame import MACROBLOCK_SIZE

#: Fig. 2's spatial predictors as ``(dr, dc)``: left, top-left, top,
#: top-right (mv4t, mv1t, mv2t, mv3t) — the only entries of the field
#: being built that a block reads.
SPATIAL_NEIGHBOURS = ((0, -1), (-1, -1), (-1, 0), (-1, 1))
#: Fig. 2's temporal predictors from the previous field: collocated plus
#: the neighbours unavailable spatially (mv0t-1, mv5t-1, mv7t-1, mv8t-1).
TEMPORAL_NEIGHBOURS = ((0, 0), (0, 1), (1, 0), (1, 1))

_MET_SWEEPS = metrics.counter("me.sweeps")

#: ``step(idx, hx, hy)``: new results for the flat macroblock indices
#: ``idx`` given the current ``(rows, cols)`` field guess; the first two
#: returned ``(len(idx),)`` arrays are the blocks' new ``hx``/``hy``.
SweepStep = Callable[[np.ndarray, np.ndarray, np.ndarray], tuple]


def gather_predictors(
    mb_row: int,
    mb_col: int,
    field: MotionField,
    prev_field: MotionField | None,
) -> list[MotionVector]:
    """Distinct candidate predictors for block (mb_row, mb_col).

    Spatial predictors come from the partially built current field (only
    causally available neighbours, per Fig. 2); temporal predictors come
    from the previous field, including the positions that are *not*
    spatially available (right/below), which is exactly what the
    temporal side contributes.  Order is deterministic; duplicates are
    collapsed keeping first occurrence.
    """
    raw: list[MotionVector | None] = [MotionVector.zero()]
    raw += [field.get(mb_row + dr, mb_col + dc) for dr, dc in SPATIAL_NEIGHBOURS]
    if prev_field is not None:
        raw += [prev_field.get(mb_row + dr, mb_col + dc) for dr, dc in TEMPORAL_NEIGHBOURS]
    seen: set[MotionVector] = set()
    out: list[MotionVector] = []
    for mv in raw:
        if mv is None or mv in seen:
            continue
        seen.add(mv)
        out.append(mv)
    return out


def _readers(changed: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Flat indices (raster order) of the blocks that read any of the
    ``changed`` field entries through :data:`SPATIAL_NEIGHBOURS`."""
    r, c = np.divmod(changed, cols)
    dirty = np.zeros((rows, cols), dtype=bool)
    for dr, dc in SPATIAL_NEIGHBOURS:
        rr, cc = r - dr, c - dc
        ok = (rr < rows) & (cc >= 0) & (cc < cols)
        dirty[rr[ok], cc[ok]] = True
    return np.flatnonzero(dirty)


def sweep_frame(
    rows: int, cols: int, guess: tuple[np.ndarray, np.ndarray], step: SweepStep
) -> tuple[list[np.ndarray], int]:
    """Iterate whole-frame sweeps of ``step`` to the raster walk's field.

    ``guess`` is the starting ``(hx, hy)`` field (the previous frame's,
    or zeros); it only decides how many sweeps the iteration takes.
    ``step`` must read the field only through :data:`SPATIAL_NEIGHBOURS`
    (see the module docstring for why the result then equals the raster
    walk's).  Sweep 1 runs every block; each later sweep reruns only the
    blocks that read an entry the previous sweep changed, and the
    iteration stops when nothing changed.  Returns ``step``'s outputs
    as flat ``(rows * cols,)`` raster-order arrays and the sweep count.
    """
    hx, hy = (np.array(a, dtype=np.int64).reshape(-1) for a in guess)
    idx = np.arange(rows * cols)
    # After sweep k every wavefront below k is final; one more sweep
    # confirms the last one.  Rerunning only the readers of changed
    # entries moves the dirty set on by a wavefront per sweep, so only
    # a non-causal neighbour table can exceed this.
    bound = cols + 2 * (rows - 1) + 1
    out: list[np.ndarray] | None = None
    sweeps = 0
    while idx.size:
        sweeps += 1
        if sweeps > bound:
            raise RuntimeError(
                f"motion sweep did not settle within {bound} sweeps on a "
                f"{rows}x{cols} grid: a block reads outside its causal neighbours"
            )
        result = step(idx, hx.reshape(rows, cols), hy.reshape(rows, cols))
        if out is None:
            out = [np.array(a) for a in result]
        else:
            for full, part in zip(out, result):
                full[idx] = part
        new_hx, new_hy = result[0], result[1]
        changed = idx[(new_hx != hx[idx]) | (new_hy != hy[idx])]
        hx[idx], hy[idx] = new_hx, new_hy
        idx = _readers(changed, rows, cols)
    _MET_SWEEPS.inc(sweeps)
    return out, sweeps


@dataclass
class SweepResult:
    """One frame's per-block outcome of a sweep, as ``(rows, cols)``
    grids — the fields of each block's :meth:`search_block` result."""

    hx: np.ndarray
    hy: np.ndarray
    sad: np.ndarray
    positions: np.ndarray
    #: Sweeps the frame took to settle.
    sweeps: int
    #: ACBM only: whether each block ran the full search, and its
    #: :class:`repro.core.classifier.BlockDecision` value.
    used_full_search: np.ndarray | None = None
    decisions: np.ndarray | None = None

    def motion(self) -> tuple[MotionField, SearchStats]:
        """The frame driver's output: the field and the stats the raster
        walk would have recorded."""
        stats = SearchStats()
        stats.record_frame(
            self.positions,
            used_full_search=False if self.used_full_search is None else self.used_full_search,
            decisions=self.decisions,
        )
        return MotionField(self.hx, self.hy), stats


def initial_guess(prev_field: MotionField | None, rows: int, cols: int):
    """The sweep's starting field: the previous frame's vectors, whose
    temporal coherence makes most blocks right first time, else zeros."""
    if prev_field is None:
        return np.zeros((rows, cols), np.int64), np.zeros((rows, cols), np.int64)
    return prev_field.hx, prev_field.hy


@register_estimator("pbm")
class PredictiveEstimator(MotionEstimator):
    """Predictor-driven search with bounded local refinement."""

    #: Maximum recentrings of the ±1 descent (the complexity bound of [9]).
    refine_steps = 2

    def search_block(self, ctx: BlockContext) -> BlockResult:
        window = clamped_window(
            ctx.block_y,
            ctx.block_x,
            MACROBLOCK_SIZE,
            MACROBLOCK_SIZE,
            ctx.reference.shape[0],
            ctx.reference.shape[1],
            self.p,
        )
        evaluator = CandidateEvaluator(
            ctx.block, ctx.ref_plane, ctx.block_y, ctx.block_x, window
        )
        predictors = gather_predictors(ctx.mb_row, ctx.mb_col, ctx.field, ctx.prev_field)
        for mv in predictors:
            # Predictors carry half-pel precision; the candidate stage of
            # [9] evaluates their integer-pel projection, clamped into
            # this block's legal window.
            dx, dy = window.clamp(round(mv.hx / 2), round(mv.hy / 2))
            evaluator.evaluate(dx, dy)
        evaluator.descend(UNIT_RING, self.refine_steps)
        mv, best_sad, extra = refine_half_pel(
            ctx.block, ctx.ref_plane, ctx.block_y, ctx.block_x, *evaluator.best(), window
        )
        return BlockResult(
            mv=mv, sad=best_sad, positions=evaluator.positions + extra, used_full_search=False
        )

    def frame_search(
        self, current: np.ndarray, plane: ReferencePlane, prev_field: MotionField | None
    ) -> SweepStep:
        """The batched :meth:`search_block` for one frame: a
        :data:`SweepStep` returning ``(hx, hy, sad, positions)`` for any
        set of blocks, given the current field guess."""
        p = self.p
        cols = current.shape[1] // MACROBLOCK_SIZE
        prev = None
        if prev_field is not None:
            prev = tuple(np.pad(a, ((0, 1), (0, 1))) for a in (prev_field.hx, prev_field.hy))

        def search(idx, hx, hy):
            r, c = np.divmod(idx, cols)
            evaluator = BatchEvaluator(current, plane, r, c, p)
            # Predictors: zero, then the spatial and temporal neighbours.
            # A missing neighbour reads the zero padding — a duplicate of
            # the zero predictor, which changes neither the best nor the
            # distinct-position count.
            fx, fy = np.pad(hx, 1), np.pad(hy, 1)
            cols_x = [np.zeros_like(idx)] + [fx[r + 1 + dr, c + 1 + dc] for dr, dc in SPATIAL_NEIGHBOURS]
            cols_y = [np.zeros_like(idx)] + [fy[r + 1 + dr, c + 1 + dc] for dr, dc in SPATIAL_NEIGHBOURS]
            if prev is not None:
                cols_x += [prev[0][r + dr, c + dc] for dr, dc in TEMPORAL_NEIGHBOURS]
                cols_y += [prev[1][r + dr, c + dc] for dr, dc in TEMPORAL_NEIGHBOURS]
            # Integer projection (np.rint rounds half to even, like
            # round()), clamped into each block's window.
            cdx = np.clip(
                np.rint(np.stack(cols_x, axis=1) / 2).astype(np.int64),
                evaluator.lo_x[:, None], evaluator.hi_x[:, None],
            )
            cdy = np.clip(
                np.rint(np.stack(cols_y, axis=1) / 2).astype(np.int64),
                evaluator.lo_y[:, None], evaluator.hi_y[:, None],
            )
            evaluator.evaluate(evaluator.all, cdx, cdy)
            evaluator.descend(evaluator.all, UNIT_RING, self.refine_steps)
            return evaluator.result()

        return search

    def sweep(
        self,
        current: np.ndarray,
        plane: ReferencePlane,
        prev_field: MotionField | None,
        qp: int,
    ) -> SweepResult:
        """Every block's :meth:`search_block` outcome from whole-frame
        sweeps (module docstring)."""
        rows, cols = current.shape[0] // MACROBLOCK_SIZE, current.shape[1] // MACROBLOCK_SIZE
        out, sweeps = sweep_frame(
            rows, cols, initial_guess(prev_field, rows, cols),
            self.frame_search(current, plane, prev_field),
        )
        return SweepResult(*(a.reshape(rows, cols) for a in out), sweeps=sweeps)

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
