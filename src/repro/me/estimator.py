"""Motion-estimator interface, frame drivers and registry.

Every algorithm (full search, predictive, ACBM, the fast-search
baselines) states its per-block definition,
:meth:`MotionEstimator.search_block`, and one whole-frame driver,
:meth:`MotionEstimator.estimate_frame`, through :mod:`repro.me.engine`,
bit-identical to raster-order ``search_block`` calls (the order H.263
encodes, and the order that makes the left/top spatial predictors of
Fig. 2 available).  FSBM computes every block's surface in one pass;
predictive and ACBM iterate whole-frame sweeps to the raster walk's
unique fixed point (:func:`repro.me.predictive.sweep_frame`); the
fixed-pattern searches (:class:`PatternSearchEstimator`: TSS, NTSS,
4SS, DS, HEXBS, CDS) read no neighbour's vector, so they run each stage
for every macroblock in lockstep on one
:class:`repro.me.candidates.BatchEvaluator`.  The only raster walk of
``search_block`` is the oracle the drivers are checked against,
:func:`repro.reference.estimate_motion`.

Every estimator searches the codec's 16x16 macroblocks
(:data:`repro.video.frame.MACROBLOCK_SIZE`) and ends with the half-pel
stage, as in the paper's H.263 setting; the search range ``p`` is the
one constructor argument they share, and a ``p`` outside the batched
kernels' envelope (:func:`repro.me.engine.kernels.check_search_envelope`)
is rejected when the estimator is built.  ``estimate`` takes 2-D
``uint8`` planes only.  ``estimate`` builds one
:class:`repro.me.engine.ReferencePlane` per call (or accepts a shared
one from the encoder); every search reads that one plane, so half-pel
candidates come from a single cached interpolation of the reference.

Estimators are stateless between frames; temporal context (the previous
frame's motion field) is passed in explicitly so the same instance can
serve several concurrent encodes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.me.candidates import BatchEvaluator, CandidateEvaluator
from repro.me.engine.kernels import check_planes, check_search_envelope
from repro.me.engine.reference_plane import ReferencePlane
from repro.me.search_window import clamped_window
from repro.me.stats import SearchStats
from repro.me.subpel import refine_half_pel
from repro.me.types import BlockResult, MotionField
from repro.video.frame import MACROBLOCK_SIZE


@dataclass
class BlockContext:
    """Everything a search needs to decide one macroblock's vector."""

    current: np.ndarray
    reference: np.ndarray
    mb_row: int
    mb_col: int
    field: MotionField
    prev_field: MotionField | None
    qp: int
    #: The per-frame cache of ``reference`` every search reads.
    ref_plane: ReferencePlane

    @property
    def block_y(self) -> int:
        return self.mb_row * MACROBLOCK_SIZE

    @property
    def block_x(self) -> int:
        return self.mb_col * MACROBLOCK_SIZE

    @property
    def block(self) -> np.ndarray:
        s = MACROBLOCK_SIZE
        return self.current[self.block_y : self.block_y + s, self.block_x : self.block_x + s]


class MotionEstimator(ABC):
    """Base class for all block-matching estimators.

    Parameters
    ----------
    p:
        Maximum integer displacement, 1..31 (the paper evaluates
        p = 15).
    """

    #: Registry key; subclasses override.
    name: str = ""

    def __init__(self, p: int = 15) -> None:
        check_search_envelope(p)
        self.p = p

    @abstractmethod
    def search_block(self, ctx: BlockContext) -> BlockResult:
        """Find the motion vector for the macroblock described by ``ctx``."""

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
        multiples of the 16x16 macroblock.  ``ref_plane`` lets the encoder
        share one per-frame cache across estimation and motion
        compensation; when omitted one is built here.  Returns the
        completed field and the search-cost stats.
        """
        cur = np.asarray(current)
        ref = np.asarray(reference)
        check_planes(cur, ref)
        rows, cols = cur.shape[0] // MACROBLOCK_SIZE, cur.shape[1] // MACROBLOCK_SIZE
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

    @abstractmethod
    def estimate_frame(
        self,
        current: np.ndarray,
        reference: np.ndarray,
        plane: ReferencePlane,
        prev_field: MotionField | None,
        qp: int,
    ) -> tuple[MotionField, SearchStats]:
        """Frame driver: the complete field and stats, bit-identical to
        raster-order :meth:`search_block` calls
        (:func:`repro.reference.estimate_motion`).  Inputs are
        pre-validated by :meth:`estimate`."""


class PatternSearchEstimator(MotionEstimator):
    """A fixed-pattern fast search (TSS, NTSS, 4SS, DS, HEXBS, CDS).

    Subclasses state their stages twice, over the two evaluators:
    :meth:`walk` for one block on a
    :class:`~repro.me.candidates.CandidateEvaluator` — the definition,
    run by :meth:`search_block` — and :meth:`walk_frame` for every
    block at once on a :class:`~repro.me.candidates.BatchEvaluator`,
    with per-block masks for the conditional stages.  Both must visit
    the same positions per block; since these searches read no
    neighbour's vector, a stage scored in one gather then gives each
    block the best its own walk finds, and :meth:`estimate_frame`
    equals the raster walk with no fixed point to iterate to.  Both
    finish with the half-pel stage.
    """

    @abstractmethod
    def walk(self, evaluator: CandidateEvaluator) -> None:
        """The integer-pel stages for one block."""

    @abstractmethod
    def walk_frame(self, evaluator: BatchEvaluator) -> None:
        """:meth:`walk` for every block of ``evaluator`` in lockstep."""

    def search_block(self, ctx: BlockContext) -> BlockResult:
        s = MACROBLOCK_SIZE
        window = clamped_window(
            ctx.block_y, ctx.block_x, s, s, ctx.reference.shape[0], ctx.reference.shape[1], self.p
        )
        evaluator = CandidateEvaluator(ctx.block, ctx.ref_plane, ctx.block_y, ctx.block_x, window)
        self.walk(evaluator)
        mv, best_sad, extra = refine_half_pel(
            ctx.block, ctx.ref_plane, ctx.block_y, ctx.block_x, *evaluator.best(), window
        )
        return BlockResult(mv=mv, sad=best_sad, positions=evaluator.positions + extra)

    def lockstep(
        self, current: np.ndarray, plane: ReferencePlane
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every block's :meth:`search_block` outcome — ``(hx, hy, sad,
        positions)`` as ``(rows, cols)`` grids — from :meth:`walk_frame`
        over the whole grid."""
        rows, cols = current.shape[0] // MACROBLOCK_SIZE, current.shape[1] // MACROBLOCK_SIZE
        mb_rows, mb_cols = np.divmod(np.arange(rows * cols), cols)
        evaluator = BatchEvaluator(current, plane, mb_rows, mb_cols, self.p)
        self.walk_frame(evaluator)
        return tuple(a.reshape(rows, cols) for a in evaluator.result())

    def estimate_frame(
        self,
        current: np.ndarray,
        reference: np.ndarray,
        plane: ReferencePlane,
        prev_field: MotionField | None,
        qp: int,
    ) -> tuple[MotionField, SearchStats]:
        """:meth:`lockstep` as a field and stats."""
        hx, hy, _, positions = self.lockstep(current, plane)
        stats = SearchStats()
        stats.record_frame(positions)
        return MotionField(hx, hy), stats


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
