"""Shared candidate bookkeeping for the non-exhaustive searches.

Predictive, three-step, four-step, diamond and cross-diamond searches
all do the same inner operation: evaluate the SAD at an integer
displacement, skipping displacements outside the window and ones
already visited, while counting evaluations.  Two evaluators centralize
that, so every algorithm's position accounting is consistent with the
paper's (each *distinct* candidate position counts once):

* :class:`CandidateEvaluator` — one block, one candidate at a time,
  each SAD from :func:`repro.me.metrics.sad`.  The searches'
  ``search_block`` definitions run on it, and so does the per-block
  oracle (:func:`repro.reference.estimate_motion`); it shares no
  kernel with the batched path.
* :class:`BatchEvaluator` — its vectorised twin for a set of
  macroblocks.  A search stage becomes one ``(blocks, candidates)``
  grid scored by a single :func:`repro.me.engine.evaluate_candidates_batch`
  gather, with per-block masks deciding which blocks take part.

Both keep the best as the lexicographic minimum of ``(SAD, max(|dx|,
|dy|), |dy|, |dx|, dy, dx)`` over the distinct positions visited — a
total order, so the order candidates are scored in never matters, only
the visited set.  A stage scored for every block in one gather therefore
gives each block the best, and the position count, that scoring it
candidate by candidate gives.  Every evaluator reads the frame's one
shared :class:`repro.me.engine.ReferencePlane`.
"""

from __future__ import annotations

import numpy as np

from repro.me.engine.kernels import (
    evaluate_candidates_batch,
    refine_half_pel_batch,
    tiebreak_keys,
    window_bounds,
)
from repro.me.engine.reference_plane import ReferencePlane
from repro.me.metrics import sad
from repro.me.search_window import SearchWindow
from repro.me.types import MotionVector
from repro.video.frame import MACROBLOCK_SIZE

#: The 8 neighbours of a unit-step square ring, as ``(dx, dy)``.
UNIT_RING = ((-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1))

#: Rank of a candidate outside its block's window: above any
#: ``SAD << 30 | key`` (SADs stay below 2^16).
_OUT_OF_WINDOW = np.int64(1) << 62


class CandidateEvaluator:
    """Evaluates integer-pel candidates for one block, with memoization.

    Tracks the running best (SAD, shortest-vector tie-break identical to
    the full search's) and the number of evaluated positions against
    the frame's shared :class:`ReferencePlane`.
    """

    def __init__(
        self,
        block: np.ndarray,
        plane: ReferencePlane,
        block_y: int,
        block_x: int,
        window: SearchWindow,
    ) -> None:
        self.block = block
        self.reference = plane.luma
        self.block_y = block_y
        self.block_x = block_x
        self.window = window
        self._cache: dict[tuple[int, int], int] = {}
        self.best_dx: int | None = None
        self.best_dy: int | None = None
        self.best_sad: int | None = None

    @property
    def positions(self) -> int:
        """Distinct candidate positions evaluated so far."""
        return len(self._cache)

    @staticmethod
    def _tiebreak_key(dx: int, dy: int) -> tuple[int, int, int, int, int]:
        return (max(abs(dx), abs(dy)), abs(dy), abs(dx), dy, dx)

    def evaluate(self, dx: int, dy: int) -> int | None:
        """SAD at displacement ``(dx, dy)``; ``None`` if outside the
        window.  Re-evaluating a visited position is free (cached) and
        does not increment the position count."""
        if not self.window.contains(dx, dy):
            return None
        key = (dx, dy)
        value = self._cache.get(key)
        if value is None:
            s = self.block.shape[0]
            y = self.block_y + dy
            x = self.block_x + dx
            value = sad(self.block, self.reference[y : y + s, x : x + self.block.shape[1]])
            self._cache[key] = value
        self._update_best(dx, dy, value)
        return value

    def _update_best(self, dx: int, dy: int, value: int) -> None:
        better = (
            self.best_sad is None
            or value < self.best_sad
            or (
                value == self.best_sad
                and self._tiebreak_key(dx, dy) < self._tiebreak_key(self.best_dx, self.best_dy)
            )
        )
        if better:
            self.best_dx, self.best_dy, self.best_sad = dx, dy, value

    def evaluate_many(self, displacements) -> None:
        """Evaluate an iterable of ``(dx, dy)`` displacements in order."""
        for dx, dy in displacements:
            self.evaluate(dx, dy)

    def best(self) -> tuple[MotionVector, int]:
        """Best integer-pel vector found and its SAD."""
        if self.best_sad is None:
            raise RuntimeError("no candidate evaluated yet")
        return MotionVector(2 * self.best_dx, 2 * self.best_dy), self.best_sad

    def descend(self, pattern, max_steps: int) -> None:
        """Greedy descent: repeatedly re-centre ``pattern`` (a list of
        ``(dx, dy)`` offsets) on the current best until no improvement
        or ``max_steps`` recentrings."""
        for _ in range(max_steps):
            centre = (self.best_dx, self.best_dy)
            self.evaluate_many((centre[0] + ox, centre[1] + oy) for ox, oy in pattern)
            if (self.best_dx, self.best_dy) == centre:
                return


def pattern_offsets(pattern) -> tuple[np.ndarray, np.ndarray]:
    """A ``(dx, dy)`` pattern as ``(1, K)`` offset rows that broadcast
    over a :class:`BatchEvaluator`'s blocks."""
    offs = np.asarray(pattern, dtype=np.int64).reshape(-1, 2)
    return offs[None, :, 0], offs[None, :, 1]


class BatchEvaluator:
    """:class:`CandidateEvaluator` for many macroblocks at once.

    Block ``i`` is macroblock ``(mb_rows[i], mb_cols[i])``; the
    ``active`` arguments are integer index arrays into those blocks, so
    a stage runs for any subset.  Per block it holds the best rank
    ``SAD << 30 | tiebreak_keys(dx, dy, p)`` with its ``(dx, dy)``
    (:attr:`dx`, :attr:`dy`), the :func:`window_bounds` limits and the
    codes of the positions visited.  The rank packs displacements for
    ``p <= 31``, the :data:`repro.me.engine.kernels.MAX_P` every
    estimator is held to.
    """

    def __init__(
        self,
        current: np.ndarray,
        plane: ReferencePlane,
        mb_rows: np.ndarray,
        mb_cols: np.ndarray,
        p: int,
    ) -> None:
        s = MACROBLOCK_SIZE
        h, w = current.shape
        dx_min, dx_max, dy_min, dy_max = window_bounds(h, w, s, p)
        self.current = current
        self.plane = plane
        self.mb_rows = np.asarray(mb_rows, dtype=np.int64)
        self.mb_cols = np.asarray(mb_cols, dtype=np.int64)
        self.p = p
        self.by, self.bx = self.mb_rows * s, self.mb_cols * s
        self.lo_x, self.hi_x = dx_min[self.mb_cols], dx_max[self.mb_cols]
        self.lo_y, self.hi_y = dy_min[self.mb_rows], dy_max[self.mb_rows]
        n = self.mb_rows.size
        #: Every block, as an ``active`` index array.
        self.all = np.arange(n)
        self.rank = np.full(n, _OUT_OF_WINDOW)
        self.dx = np.zeros(n, dtype=np.int64)
        self.dy = np.zeros(n, dtype=np.int64)
        self._visited: list[np.ndarray] = []

    def evaluate(self, active: np.ndarray, dxs, dys) -> np.ndarray:
        """Score candidate displacements for the ``active`` blocks.

        ``dxs``/``dys`` broadcast against ``(active.size, 1)`` to the
        stage's ``(active.size, K)`` candidate grid; candidates
        outside a block's window are skipped (rank
        :data:`_OUT_OF_WINDOW`, not visited).  Returns, per active
        block, whether its best moved — a strictly better rank, since
        a revisited position cannot beat the best it already lost or
        belongs to.
        """
        if not active.size:
            return np.zeros(0, dtype=bool)
        # Every block: basic slices, no gathers of the per-block arrays.
        sel = slice(None) if active is self.all else active
        inside = (
            (dxs >= self.lo_x[sel, None]) & (dxs <= self.hi_x[sel, None])
            & (dys >= self.lo_y[sel, None]) & (dys <= self.hi_y[sel, None])
        )
        dxs, dys = np.where(inside, dxs, 0), np.where(inside, dys, 0)
        sads = evaluate_candidates_batch(self.current, self.plane, self.by[sel], self.bx[sel], dys, dxs)
        rank = np.where(inside, (sads << 30) | tiebreak_keys(dxs, dys, self.p), _OUT_OF_WINDOW)
        n = 2 * self.p + 1
        self._visited.append(((active[:, None] * n + dys + self.p) * n + dxs + self.p)[inside])
        pick = rank.argmin(axis=1)
        at = np.arange(active.size)
        stage_best = rank[at, pick]
        moved = stage_best < self.rank[sel]
        won, at, pick = active[moved], at[moved], pick[moved]
        self.rank[won] = stage_best[moved]
        self.dx[won] = dxs[at, pick]
        self.dy[won] = dys[at, pick]
        return moved

    def evaluate_around(self, active: np.ndarray, pattern) -> np.ndarray:
        """:meth:`evaluate` ``pattern`` centred on each active block's
        best; returns which bests moved."""
        odx, ody = pattern_offsets(pattern)
        sel = slice(None) if active is self.all else active
        return self.evaluate(active, self.dx[sel, None] + odx, self.dy[sel, None] + ody)

    def descend(self, active: np.ndarray, pattern, max_steps: int) -> None:
        """:meth:`CandidateEvaluator.descend` for the active blocks: a
        block drops out at the first recentring that leaves its best in
        place."""
        for _ in range(max_steps):
            if not active.size:
                return
            active = active[self.evaluate_around(active, pattern)]

    def positions(self) -> np.ndarray:
        """Distinct positions each block visited, counted by sort."""
        codes = np.sort(np.concatenate(self._visited + [np.zeros(0, np.int64)]))
        fresh = np.ones(codes.size, dtype=bool)
        fresh[1:] = codes[1:] != codes[:-1]
        n = 2 * self.p + 1
        return np.bincount(codes[fresh] // (n * n), minlength=self.all.size).astype(np.int64)

    def result(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every block's ``(hx, hy, sad, positions)`` — the
        ``search_block`` outcome — after the half-pel stage (one
        :func:`refine_half_pel_batch` over the set)."""
        hx, hy, best_sad, extra = refine_half_pel_batch(
            self.current, self.plane, self.dx, self.dy, self.rank >> 30,
            self.p, blocks=(self.mb_rows, self.mb_cols),
        )
        return hx, hy, best_sad, self.positions() + extra
