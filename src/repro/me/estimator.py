"""Motion-estimator interface, frame driver and registry.

Every algorithm (full search, predictive, ACBM, the fast-search
baselines) implements one method — :meth:`MotionEstimator.search_block`
— and inherits :meth:`MotionEstimator.estimate`.  The frame driver,
:meth:`MotionEstimator.estimate_frame`, is *overridable*: the default
walks the macroblock grid in raster order (the order H.263 encodes, and
the order that makes the left/top spatial predictors of Fig. 2
available), assembling a :class:`MotionField` and a
:class:`SearchStats`; estimators with a whole-frame vectorized path
override it and batch every block through :mod:`repro.me.engine`
instead, with bit-identical results.  FSBM computes every block's
surface in one pass; predictive and ACBM iterate whole-frame sweeps to
the raster walk's unique fixed point
(:func:`repro.me.predictive.sweep_frame`).  The default walk itself
batches what it can: searches that declare a fixed opening pattern
(:meth:`MotionEstimator.first_ring`) get that ring scored for every
block in one :func:`repro.me.engine.frame_ring_sad` gather before the
walk starts, and each block's evaluator is seeded with the precomputed
SADs.

``estimate`` takes 2-D ``uint8`` planes only and builds one
:class:`repro.me.engine.ReferencePlane` per call (or accepts a shared
one from the encoder); every search reads that one plane, so half-pel
candidates come from a single cached interpolation of the reference.
The per-block oracle the frame drivers are checked against is
:func:`repro.reference.estimate_motion`.

Estimators are stateless between frames; temporal context (the previous
frame's motion field) is passed in explicitly so the same instance can
serve several concurrent encodes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from repro.me.engine.kernels import frame_ring_sad
from repro.me.engine.reference_plane import ReferencePlane
from repro.me.stats import SearchStats
from repro.me.types import BlockResult, MotionField


@dataclass
class BlockContext:
    """Everything a search needs to decide one macroblock's vector."""

    current: np.ndarray
    reference: np.ndarray
    mb_row: int
    mb_col: int
    block_size: int
    field: MotionField
    prev_field: MotionField | None
    qp: int
    #: The per-frame cache of ``reference`` every search reads.
    ref_plane: ReferencePlane
    #: Pre-scored first-ring SADs for *this* block, keyed by ``(dx, dy)``
    #: — filled by the frame driver from one :func:`frame_ring_sad`
    #: gather when the estimator declares a fixed first ring.  A
    #: :class:`repro.me.candidates.CandidateEvaluator` consults it on
    #: cache misses, so values are used (and counted) only for the
    #: positions the search actually visits.
    warm_sads: "Mapping[tuple[int, int], int] | None" = None

    @property
    def block_y(self) -> int:
        return self.mb_row * self.block_size

    @property
    def block_x(self) -> int:
        return self.mb_col * self.block_size

    @property
    def block(self) -> np.ndarray:
        s = self.block_size
        return self.current[self.block_y : self.block_y + s, self.block_x : self.block_x + s]


class MotionEstimator(ABC):
    """Base class for all block-matching estimators.

    Parameters
    ----------
    p:
        Maximum integer displacement (the paper evaluates p = 15).
    block_size:
        Luma block edge (16 throughout the paper).
    half_pel:
        Whether the final vector is refined to half-pel precision, as
        in the paper's H.263 setting.
    """

    #: Registry key; subclasses override.
    name: str = ""

    def __init__(
        self,
        p: int = 15,
        block_size: int = 16,
        half_pel: bool = True,
    ) -> None:
        if p < 1:
            raise ValueError(f"p must be >= 1, got {p}")
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        self.p = p
        self.block_size = block_size
        self.half_pel = half_pel

    @abstractmethod
    def search_block(self, ctx: BlockContext) -> BlockResult:
        """Find the motion vector for the macroblock described by ``ctx``."""

    def first_ring(self) -> "tuple[tuple[int, int], ...] | None":
        """The fixed first-stage candidate displacements, or ``None``.

        Pattern searches whose opening stage evaluates the same
        ``(dx, dy)`` set for every block (TSS's step ring, DS's large
        diamond, ...) return it here; the frame driver then scores the
        ring for *all* blocks in one :func:`frame_ring_sad` gather and
        seeds each block's evaluator with the results.  Searches whose
        first candidates depend on the field being built (predictive,
        ACBM) return ``None``; they batch through their own frame
        driver instead.
        """
        return None

    def _first_ring_warm(
        self, current: np.ndarray, plane: ReferencePlane, rows: int, cols: int
    ) -> "list[list[dict[tuple[int, int], int]]] | None":
        """Per-block warm SAD dictionaries from one batched ring gather,
        or ``None`` when the search declares no fixed first ring.
        Candidates whose block leaves the plane are dropped (the
        evaluator's window test rejects them before the warm cache is
        consulted anyway)."""
        ring = self.first_ring()
        if not ring:
            return None
        sads = frame_ring_sad(current, plane, ring, self.block_size).tolist()
        return [
            [
                {off: value for off, value in zip(ring, sads[r][c]) if value >= 0}
                for c in range(cols)
            ]
            for r in range(rows)
        ]

    def estimate(
        self,
        current: np.ndarray,
        reference: np.ndarray,
        prev_field: MotionField | None = None,
        qp: int = 16,
        ref_plane: ReferencePlane | None = None,
    ) -> tuple[MotionField, SearchStats]:
        """Estimate the motion field of ``current`` against ``reference``.

        Planes must be 2-D ``uint8``, share shape and be exact
        multiples of the block size.  ``ref_plane`` lets the encoder
        share one per-frame cache across estimation and motion
        compensation; when omitted one is built here.  Returns the
        completed field and the search-cost stats.
        """
        cur = np.asarray(current)
        ref = np.asarray(reference)
        for role, arr in (("current", cur), ("reference", ref)):
            if arr.ndim != 2 or arr.dtype != np.uint8:
                raise ValueError(
                    f"{role} plane must be 2-D uint8, got {arr.dtype} of shape {arr.shape}"
                )
        if cur.shape != ref.shape:
            raise ValueError(f"plane shapes differ: {cur.shape} vs {ref.shape}")
        h, w = cur.shape
        s = self.block_size
        if h % s or w % s:
            raise ValueError(f"plane {cur.shape} not a multiple of block size {s}")
        rows, cols = h // s, w // s
        if prev_field is not None and (prev_field.mb_rows, prev_field.mb_cols) != (rows, cols):
            raise ValueError(
                f"previous field {prev_field.mb_rows}x{prev_field.mb_cols} "
                f"does not match {rows}x{cols} grid"
            )
        if ref_plane is None:
            ref_plane = ReferencePlane.wrap(ref)
        elif ref_plane.luma is not ref and (
            ref_plane.shape != ref.shape or not np.array_equal(ref_plane.luma, ref)
        ):
            # A stale cache (e.g. hoisted out of a frame loop) would
            # silently search the wrong frame; the equality check is
            # trivially cheap next to one frame's search.
            raise ValueError(
                f"ref_plane {ref_plane.shape} does not wrap this reference "
                f"{ref.shape}: build one ReferencePlane per reference frame"
            )
        return self.estimate_frame(cur, ref, ref_plane, prev_field, qp)

    def estimate_frame(
        self,
        current: np.ndarray,
        reference: np.ndarray,
        plane: ReferencePlane,
        prev_field: MotionField | None,
        qp: int,
    ) -> tuple[MotionField, SearchStats]:
        """Frame driver: produce the complete field and stats.

        The base implementation is the per-block raster walk every
        search supports; estimators with a whole-frame vectorized path
        override this and must stay bit-identical to it.  FSBM batches
        every block's full search; predictive and ACBM, whose block
        decisions feed later blocks through Fig. 2's causal
        predictors, run whole-frame sweeps to the raster walk's unique
        fixed point.  Both fall back to this walk outside the batched
        kernels' envelope.  Inputs are pre-validated by
        :meth:`estimate`.
        """
        s = self.block_size
        rows, cols = current.shape[0] // s, current.shape[1] // s
        warm = self._first_ring_warm(current, plane, rows, cols)
        field = MotionField(rows, cols)
        stats = SearchStats()
        for r in range(rows):
            for c in range(cols):
                ctx = BlockContext(
                    current=current,
                    reference=reference,
                    mb_row=r,
                    mb_col=c,
                    block_size=s,
                    field=field,
                    prev_field=prev_field,
                    qp=qp,
                    ref_plane=plane,
                    warm_sads=warm[r][c] if warm is not None else None,
                )
                result = self.search_block(ctx)
                field.set(r, c, result.mv)
                stats.record_block(
                    result.positions,
                    used_full_search=result.used_full_search,
                    decision=getattr(result, "decision", None),
                )
        return field, stats


# -- registry -----------------------------------------------------------

_REGISTRY: dict[str, Callable[..., MotionEstimator]] = {}


def register_estimator(name: str) -> Callable[[type], type]:
    """Class decorator registering an estimator under ``name``."""

    def wrap(cls: type) -> type:
        if name in _REGISTRY:
            raise ValueError(f"estimator {name!r} already registered")
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return wrap


def _load_builtin_estimators() -> None:
    """Import the implementation modules so they self-register.

    Done lazily (not at package import) to avoid import cycles between
    ``repro.me`` and ``repro.core``.
    """
    from repro import core  # noqa: F401
    from repro.me import (  # noqa: F401
        cross_diamond,
        diamond,
        four_step,
        full_search,
        hexagon,
        new_three_step,
        predictive,
        three_step,
    )


def available_estimators() -> tuple[str, ...]:
    """Registered estimator names, sorted."""
    _load_builtin_estimators()
    return tuple(sorted(_REGISTRY))


def create_estimator(name: str, **kwargs) -> MotionEstimator:
    """Instantiate a registered estimator by name.

    >>> est = create_estimator("fsbm", p=15)
    >>> est.name
    'fsbm'
    """
    _load_builtin_estimators()
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown estimator {name!r}; available: {available_estimators()}") from None
    return factory(**kwargs)
