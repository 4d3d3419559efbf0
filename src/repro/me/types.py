"""Core motion-estimation value types.

Sign convention (paper Fig. 1): a motion vector ``(dx, dy)`` means the
best-matched block for the current-frame block at pixel ``(y, x)`` sits
at ``(y + dy, x + dx)`` in the *reference* (previous) frame.

Half-pel precision is represented exactly: :class:`MotionVector` stores
displacements as integers in **half-pel units**, so ``MotionVector(3, -2)``
is ``(+1.5, -1.0)`` pixels.  This keeps every comparison and the H.263
MVD coder exact (no float equality anywhere).

A frame's vectors live in :class:`MotionField` as two ``(rows, cols)``
int64 grids of the same half-pel components, ``hx`` and ``hy``: the
frame drivers compute, store and read them whole, and a
:class:`MotionVector` is built only where one block is read — by the
``search_block`` definitions, the median MVD predictor and the
:mod:`repro.reference` oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, order=True)
class MotionVector:
    """A displacement in half-pel units.

    Attributes
    ----------
    hx, hy:
        Horizontal / vertical displacement in half-pels (2 = one pixel).
    """

    hx: int
    hy: int

    def __post_init__(self) -> None:
        if not isinstance(self.hx, (int, np.integer)) or not isinstance(
            self.hy, (int, np.integer)
        ):
            raise TypeError(f"half-pel components must be integers, got ({self.hx!r}, {self.hy!r})")
        object.__setattr__(self, "hx", int(self.hx))
        object.__setattr__(self, "hy", int(self.hy))

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero() -> "MotionVector":
        return MotionVector(0, 0)

    # -- views ------------------------------------------------------------

    @property
    def x_pixels(self) -> float:
        return self.hx / 2.0

    @property
    def y_pixels(self) -> float:
        return self.hy / 2.0

    @property
    def is_integer_pel(self) -> bool:
        return self.hx % 2 == 0 and self.hy % 2 == 0

    @property
    def is_zero(self) -> bool:
        return self.hx == 0 and self.hy == 0

    # -- algebra ---------------------------------------------------------

    def __add__(self, other: "MotionVector") -> "MotionVector":
        return MotionVector(self.hx + other.hx, self.hy + other.hy)

    def __sub__(self, other: "MotionVector") -> "MotionVector":
        return MotionVector(self.hx - other.hx, self.hy - other.hy)

    def __neg__(self) -> "MotionVector":
        return MotionVector(-self.hx, -self.hy)

    def __repr__(self) -> str:
        return f"MV({self.x_pixels:+g}, {self.y_pixels:+g})"


@dataclass(frozen=True)
class BlockResult:
    """Outcome of a motion search for a single macroblock.

    Attributes
    ----------
    mv:
        Selected motion vector.
    sad:
        SAD of the selected candidate (at the selected precision).
    positions:
        Candidate positions *evaluated* to reach the decision — the
        paper's computational-complexity currency (Table 1).
    used_full_search:
        ACBM bookkeeping: whether this block was classified critical.
    """

    mv: MotionVector
    sad: int
    positions: int
    used_full_search: bool = False

    def __post_init__(self) -> None:
        if self.sad < 0:
            raise ValueError(f"SAD must be >= 0, got {self.sad}")
        if self.positions < 1:
            raise ValueError(f"positions must be >= 1, got {self.positions}")


class MotionField:
    """One frame's motion vectors as two ``(rows, cols)`` int64 grids of
    half-pel components, ``hx`` and ``hy``.

    The frame drivers build and read the grids whole.  :meth:`get` /
    :meth:`set` give the per-block view that the ``search_block``
    definitions, the H.263 median predictor and the
    :mod:`repro.reference` oracles walk in raster order, with the
    border handling of paper Fig. 2: a neighbour off the grid reads
    ``None`` and is skipped.
    """

    def __init__(self, hx: np.ndarray, hy: np.ndarray) -> None:
        hx, hy = np.asarray(hx), np.asarray(hy)
        if hx.ndim != 2 or hx.shape != hy.shape or hx.size == 0:
            raise ValueError(f"motion grids must share a non-empty 2-D shape: {hx.shape} vs {hy.shape}")
        if hx.dtype.kind not in "iu" or hy.dtype.kind not in "iu":
            raise TypeError(f"motion grids must be integer, got {hx.dtype}/{hy.dtype}")
        self.hx = hx.astype(np.int64)
        self.hy = hy.astype(np.int64)
        self.mb_rows, self.mb_cols = hx.shape

    @staticmethod
    def zeros(mb_rows: int, mb_cols: int) -> "MotionField":
        shape = (mb_rows, mb_cols)
        return MotionField(np.zeros(shape, np.int64), np.zeros(shape, np.int64))

    def get(self, mb_row: int, mb_col: int) -> MotionVector | None:
        """Vector at (row, col); ``None`` off the grid.  An entry not yet
        set reads as zero — a duplicate of the zero predictor every
        search already tries."""
        if 0 <= mb_row < self.mb_rows and 0 <= mb_col < self.mb_cols:
            return MotionVector(self.hx[mb_row, mb_col], self.hy[mb_row, mb_col])
        return None

    def set(self, mb_row: int, mb_col: int, mv: MotionVector) -> None:
        if not (0 <= mb_row < self.mb_rows and 0 <= mb_col < self.mb_cols):
            raise IndexError(f"({mb_row}, {mb_col}) outside {self.mb_rows}x{self.mb_cols} field")
        self.hx[mb_row, mb_col] = mv.hx
        self.hy[mb_row, mb_col] = mv.hy

    def __repr__(self) -> str:
        return f"MotionField({self.mb_rows}x{self.mb_cols})"
