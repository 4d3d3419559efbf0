"""Per-frame chroma reference cache.

The luma side of the codec shares one :class:`ReferencePlane` per
reference frame; :class:`ChromaReferencePlane` is the 4:2:0 counterpart:
both chroma planes (Cb, Cr) wrapped in :class:`ReferencePlane` caches so
their H.263 half-pel samples are interpolated once per frame instead of
once per block (the seed re-ran the bilinear interpolation inside
:func:`repro.codec.macroblock.predict_chroma_block` for every
macroblock's Cb *and* Cr prediction).

Whole-frame motion compensation goes through
:meth:`ChromaReferencePlane.mc_frame`; its per-block definition,
interpolating from the raw planes, is
:func:`repro.codec.macroblock.predict_chroma_block`.
"""

from __future__ import annotations

import numpy as np

from repro.me.engine.reconstruction import frame_mc_chroma
from repro.me.engine.reference_plane import ReferencePlane


class ChromaReferencePlane:
    """The Cb/Cr reference planes plus their lazily built half-pel
    upsamplings, built once per reference frame and shared by the
    encoder's closed loop and the decoder.

    Parameters
    ----------
    cb, cr:
        2-D ``uint8`` chroma planes of equal shape.
    """

    __slots__ = ("cb", "cr")

    def __init__(self, cb: np.ndarray, cr: np.ndarray) -> None:
        self.cb = ReferencePlane.wrap(cb)
        self.cr = ReferencePlane.wrap(cr)
        if self.cb.shape != self.cr.shape:
            raise ValueError(f"Cb/Cr shapes differ: {self.cb.shape} vs {self.cr.shape}")

    @property
    def shape(self) -> tuple[int, int]:
        """Chroma plane dimensions (height, width)."""
        return self.cb.shape

    def mc_frame(
        self, field_hx: np.ndarray, field_hy: np.ndarray, p: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Whole-frame motion-compensated (Cb, Cr) predictions from the
        *luma* motion component grids — the batched, cached equivalent
        of calling :func:`repro.codec.macroblock.predict_chroma_block`
        per macroblock for both chroma planes."""
        return (
            frame_mc_chroma(self.cb, field_hx, field_hy, p),
            frame_mc_chroma(self.cr, field_hx, field_hy, p),
        )

    def __repr__(self) -> str:
        h, w = self.shape
        return f"ChromaReferencePlane({h}x{w} per plane)"
