"""Per-frame reference cache with a precomputed half-pel plane.

H.263 half-pel samples (TMN5 rounding) interpolated for the whole
plane at once:

* horizontal half:  ``(a + b + 1) >> 1``
* vertical half:    ``(a + c + 1) >> 1``
* centre:           ``(a + b + c + d + 2) >> 2``

The seed implementation (:func:`repro.me.subpel.half_pel_block`)
interpolated a fresh 16x16 patch for every half-pel candidate of every
block — with FSBM's 8 half-pel neighbours that is ~800 interpolations
per QCIF frame, all re-deriving the same samples.  Here the
``(2H-1) x (2W-1)`` upsampled plane is built once per reference frame
and every half-pel block is a strided view into it.  Bit-exactness
with ``half_pel_block`` is asserted sample-for-sample by
``tests/test_engine.py``.
"""

from __future__ import annotations

import numpy as np

from repro.obs import metrics

#: ``wrap`` outcomes: a hit re-uses an existing plane (and whatever
#: half-pel work it already did); a miss constructs a fresh one.
#: ``half_builds`` counts actual whole-plane interpolations — the
#: expensive event the cache exists to amortize.  All are per-frame
#: frequency, never per-candidate.
_MET_WRAP_HITS = metrics.counter("refplane.hits")
_MET_WRAP_MISSES = metrics.counter("refplane.misses")
_MET_HALF_BUILDS = metrics.counter("refplane.half_builds")


class ReferencePlane:
    """The reference luma plane plus its lazily built half-pel upsampling.

    Build one per reference frame and share it between the motion
    estimators, the half-pel refinement and the encoder's motion
    compensation — they all read the same interpolated samples, so the
    SAD a search reports stays exactly the SAD the encoder's residual
    sees.

    Parameters
    ----------
    luma:
        2-D ``uint8`` reference plane.
    """

    __slots__ = ("luma", "_half")

    def __init__(self, luma: np.ndarray) -> None:
        arr = np.asarray(luma)
        if arr.ndim != 2:
            raise ValueError(f"reference plane must be 2-D, got shape {arr.shape}")
        if arr.dtype != np.uint8:
            raise ValueError(f"reference plane must be uint8, got {arr.dtype}")
        if arr.shape[0] < 2 or arr.shape[1] < 2:
            raise ValueError(f"reference plane {arr.shape} too small to interpolate")
        self.luma = np.ascontiguousarray(arr)
        self._half: np.ndarray | None = None

    # -- constructors ---------------------------------------------------

    @staticmethod
    def wrap(reference: "np.ndarray | ReferencePlane") -> "ReferencePlane":
        """Coerce to a plane: a plane passes through, an array is
        wrapped (raising :class:`ValueError` as the constructor does)."""
        if isinstance(reference, ReferencePlane):
            _MET_WRAP_HITS.inc()
            return reference
        plane = ReferencePlane(reference)
        _MET_WRAP_MISSES.inc()
        return plane

    # -- planes ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.luma.shape

    @property
    def half_plane(self) -> np.ndarray:
        """The ``(2H-1) x (2W-1)`` half-pel plane; entry ``(hy, hx)`` is
        the H.263 bilinear sample at half-pel coordinate ``(hy, hx)``.
        Even coordinates are the integer samples themselves."""
        if self._half is None:
            _MET_HALF_BUILDS.inc()
            r = self.luma.astype(np.int32)
            h, w = self.luma.shape
            half = np.empty((2 * h - 1, 2 * w - 1), dtype=np.uint8)
            half[::2, ::2] = self.luma
            half[::2, 1::2] = ((r[:, :-1] + r[:, 1:] + 1) >> 1).astype(np.uint8)
            half[1::2, ::2] = ((r[:-1, :] + r[1:, :] + 1) >> 1).astype(np.uint8)
            half[1::2, 1::2] = (
                (r[:-1, :-1] + r[:-1, 1:] + r[1:, :-1] + r[1:, 1:] + 2) >> 2
            ).astype(np.uint8)
            self._half = half
        return self._half

    # -- block access ---------------------------------------------------

    def block(self, half_y: int, half_x: int, height: int, width: int) -> np.ndarray:
        """Predicted ``height x width`` block at half-pel coordinate
        ``(half_y, half_x)`` — the cached equivalent of
        :func:`repro.me.subpel.half_pel_block` (a strided view, no
        interpolation at call time)."""
        h, w = self.luma.shape
        if not (0 <= half_y <= 2 * (h - height) and 0 <= half_x <= 2 * (w - width)):
            raise ValueError(
                f"half-pel block at ({half_y}, {half_x}) size {height}x{width} "
                f"needs support outside plane {self.luma.shape}"
            )
        return self.half_plane[
            half_y : half_y + 2 * height - 1 : 2, half_x : half_x + 2 * width - 1 : 2
        ]

    def __repr__(self) -> str:
        built = self._half is not None
        return f"ReferencePlane({self.luma.shape[0]}x{self.luma.shape[1]}, half_pel={'built' if built else 'lazy'})"
