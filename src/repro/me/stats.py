"""Search-cost accounting.

The paper reports computational complexity as the *average number of
candidate positions searched per macroblock* (Table 1) — 969 for FSBM
with p = 15 (961 integer + 8 half-pel).  :class:`SearchStats`
accumulates exactly that across blocks and frames, plus the ACBM
decision mix (how often each classifier branch fired).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class SearchStats:
    """Accumulates per-block search outcomes across a run."""

    blocks: int = 0
    positions: int = 0
    full_search_blocks: int = 0
    #: ACBM decision counts keyed by branch name (see core.classifier).
    decisions: dict[str, int] = field(default_factory=dict)

    def record_block(
        self,
        positions: int,
        used_full_search: bool = False,
        decision: str | None = None,
    ) -> None:
        if positions < 1:
            raise ValueError(f"positions must be >= 1, got {positions}")
        self.blocks += 1
        self.positions += positions
        if used_full_search:
            self.full_search_blocks += 1
        if decision is not None:
            self.decisions[decision] = self.decisions.get(decision, 0) + 1

    def record_frame(
        self,
        positions: np.ndarray,
        used_full_search: np.ndarray | bool = False,
        decisions: np.ndarray | None = None,
    ) -> None:
        """Record a whole frame's blocks at once — the frame drivers'
        form of :meth:`record_block`: per-block position counts, a
        full-search mask (or one flag for every block) and, for ACBM,
        each block's decision value."""
        positions = np.asarray(positions)
        if positions.size and positions.min() < 1:
            raise ValueError(f"positions must be >= 1, got {positions.min()}")
        self.blocks += positions.size
        self.positions += int(positions.sum())
        self.full_search_blocks += int(
            np.count_nonzero(np.broadcast_to(used_full_search, positions.shape))
        )
        if decisions is not None:
            for decision, count in zip(*np.unique(decisions, return_counts=True)):
                self.decisions[str(decision)] = self.decisions.get(str(decision), 0) + int(count)

    def merge(self, other: "SearchStats") -> None:
        """Fold another accumulator into this one (frame → sequence)."""
        self.blocks += other.blocks
        self.positions += other.positions
        self.full_search_blocks += other.full_search_blocks
        for key, count in other.decisions.items():
            self.decisions[key] = self.decisions.get(key, 0) + count

    @property
    def avg_positions_per_block(self) -> float:
        """Table 1's quantity.  0.0 before any block is recorded."""
        if self.blocks == 0:
            return 0.0
        return self.positions / self.blocks

    @property
    def full_search_fraction(self) -> float:
        """Fraction of blocks classified critical (ACBM only)."""
        if self.blocks == 0:
            return 0.0
        return self.full_search_blocks / self.blocks

    def __repr__(self) -> str:
        return (
            f"SearchStats(blocks={self.blocks}, "
            f"avg_positions={self.avg_positions_per_block:.1f}, "
            f"full_search={self.full_search_fraction:.1%})"
        )
