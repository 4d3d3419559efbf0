"""Shared candidate bookkeeping for the non-exhaustive searches.

Predictive, three-step, four-step, diamond and cross-diamond searches
all do the same inner operation: evaluate the SAD at an integer
displacement, skipping displacements outside the window and ones
already visited, while counting evaluations.  :class:`CandidateEvaluator`
centralizes that so every algorithm's position accounting is consistent
with the paper's (each *distinct* candidate position counts once).
Every evaluator reads the frame's one shared
:class:`repro.me.engine.ReferencePlane`.

Candidate *sets* (a predictor list, a search pattern ring) are scored
through the engine's :func:`repro.me.engine.evaluate_candidates_batch`
— one vectorized gather instead of a Python round trip per candidate —
while the best-so-far update replays in the original order, keeping
tie-breaks and position counts bit-identical to the sequential path.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.me.engine.kernels import evaluate_candidates_batch
from repro.me.engine.reference_plane import ReferencePlane
from repro.me.metrics import sad
from repro.me.search_window import SearchWindow
from repro.me.types import MotionVector

#: Below this many uncached in-window candidates the gather set-up costs
#: more than it saves; evaluate one by one.
_BATCH_THRESHOLD = 3


class CandidateEvaluator:
    """Evaluates integer-pel candidates for one block, with memoization.

    Tracks the running best (SAD, shortest-vector tie-break identical to
    the full search's) and the number of evaluated positions against
    the frame's shared :class:`ReferencePlane`.  ``precomputed`` optionally maps
    ``(dx, dy)`` to already-scored SADs (the frame driver's batched
    first ring): a miss in the evaluator's own cache consults it before
    computing, so precomputed positions still count as evaluated only
    once the search actually visits them — position accounting and
    tie-breaks stay bit-identical to the unseeded path.
    """

    def __init__(
        self,
        block: np.ndarray,
        plane: ReferencePlane,
        block_y: int,
        block_x: int,
        window: SearchWindow,
        precomputed: "Mapping[tuple[int, int], int] | None" = None,
    ) -> None:
        self.block = block
        self.reference = plane.luma
        self.block_y = block_y
        self.block_x = block_x
        self.window = window
        self._pre = precomputed if precomputed else None
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
        cached = self._cache.get(key)
        if cached is not None:
            value = cached
        else:
            value = self._pre.get(key) if self._pre is not None else None
            if value is None:
                s = self.block.shape[0]
                y = self.block_y + dy
                x = self.block_x + dx
                ref_block = self.reference[y : y + s, x : x + self.block.shape[1]]
                value = sad(self.block, ref_block)
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
        """Evaluate an iterable of ``(dx, dy)`` displacements.

        Uncached in-window candidates are scored in one vectorized
        batch; the best-so-far then updates in the iteration order, so
        results match calling :meth:`evaluate` sequentially.
        """
        disp = list(displacements)
        fresh: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for dx, dy in disp:
            pos = (dx, dy)
            if (
                self.window.contains(dx, dy)
                and pos not in self._cache
                and pos not in seen
                and (self._pre is None or pos not in self._pre)
            ):
                seen.add(pos)
                fresh.append(pos)
        if len(fresh) >= _BATCH_THRESHOLD and self.block.shape[0] == self.block.shape[1]:
            arr = np.array(fresh)
            sads = evaluate_candidates_batch(
                self.block,
                self.reference,
                np.array([0]),
                np.array([0]),
                (self.block_y + arr[:, 1])[None, :],
                (self.block_x + arr[:, 0])[None, :],
                self.block.shape[0],
            )[0]
            for (dx, dy), value in zip(fresh, sads.tolist()):
                if value >= 0:
                    self._cache[(dx, dy)] = value
        for dx, dy in disp:
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
