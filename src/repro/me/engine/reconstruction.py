"""Whole-frame motion-compensation and reconstruction kernels.

The search side of the codec got frame-level batching in the engine's
first iteration (:mod:`repro.me.engine.kernels`); these kernels give the
*reconstruction* side the same treatment.  The seed decoder and the
encoder's closed loop walked macroblocks in Python, re-slicing (and for
chroma re-interpolating) the reference once per block:

* :func:`frame_mc_luma` — the motion-compensated luma prediction of a
  whole frame in one gather from :class:`ReferencePlane`'s cached
  half-pel plane (integer and half-pel vectors go through the same
  plane; even coordinates are the integer samples themselves).
* :func:`chroma_mv_grids` / :func:`frame_mc_chroma` — the H.263 chroma
  vector derivation (halving with away-from-zero rounding) and the
  clamped chroma motion compensation, vectorized over the macroblock
  grid.
* :func:`tile_luma_blocks` / :func:`tile_blocks` — reassemble per-block
  8x8 stacks into full planes (H.263 TL, TR, BL, BR luma block order);
  :func:`split_frame_blocks` is their inverse, the encoder's one
  whole-frame block split ahead of its single forward DCT.
* :func:`composite_predictions` — per-macroblock selection among
  whole-frame predictions from several references (multi-reference
  P-frames), shared by the encoder's closed loop and the decoder.
* :func:`add_residual_clip` — the residual add + round + clamp that
  turns predictions and IDCT output into stored ``uint8`` planes.

Everything is bit-exact with the per-block reference path it replaces
(:func:`repro.me.subpel.predict_block`,
:func:`repro.codec.macroblock.predict_chroma_block` and the seed
decoder loop); ``tests/test_reconstruction.py`` holds the equivalence
proofs.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import get_backend
from repro.me.engine.kernels import _window_bounds
from repro.me.engine.reference_plane import ReferencePlane


def _halve_away_from_zero(components: np.ndarray) -> np.ndarray:
    """Vectorized H.263 chroma halving: even components divide exactly,
    odd components round away from zero (the scalar
    :func:`repro.codec.macroblock.chroma_mv` rule)."""
    a = np.asarray(components, dtype=np.int64)
    odd = (a & 1) != 0
    return np.where(odd, np.where(a > 0, (a + 1) // 2, (a - 1) // 2), a // 2)


def chroma_mv_grids(luma_hx: np.ndarray, luma_hy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chroma vector component grids (chroma half-pel units) derived
    from luma component grids — :func:`repro.codec.macroblock.chroma_mv`
    over a whole motion field at once."""
    return _halve_away_from_zero(luma_hx), _halve_away_from_zero(luma_hy)


def mc_gather_numpy(
    half: np.ndarray, base_hy: np.ndarray, base_hx: np.ndarray, block_size: int
) -> np.ndarray:
    """Read one ``block_size`` square per grid cell from the cached
    half-pel plane at absolute half-pel origins ``(base_hy, base_hx)``
    and tile them into the ``(rows*s, cols*s)`` prediction plane — the
    numpy backend's binding for the ``mc_gather`` ABI entry."""
    rows, cols = base_hy.shape
    step = 2 * np.arange(block_size)
    pred = half[
        base_hy[:, :, None, None] + step[None, None, :, None],
        base_hx[:, :, None, None] + step[None, None, None, :],
    ]  # (rows, cols, s, s)
    return pred.transpose(0, 2, 1, 3).reshape(rows * block_size, cols * block_size)


def frame_mc_luma(
    plane: ReferencePlane,
    field_hx: np.ndarray,
    field_hy: np.ndarray,
    block_size: int = 16,
) -> np.ndarray:
    """Motion-compensated luma prediction of a whole frame.

    ``field_hx``/``field_hy`` are the motion field's half-pel component
    grids, shape ``(mb_rows, mb_cols)``.  Every block must stay inside
    the reference plane (H.263 baseline has no unrestricted MV mode);
    a vector whose support leaves the plane raises ``ValueError``, the
    same contract as the per-block :func:`repro.me.subpel.predict_block`.
    """
    s = block_size
    h, w = plane.shape
    rows, cols = h // s, w // s
    hx = np.asarray(field_hx, dtype=np.int64)
    hy = np.asarray(field_hy, dtype=np.int64)
    if hx.shape != (rows, cols) or hy.shape != (rows, cols):
        raise ValueError(
            f"motion grids {hx.shape}/{hy.shape} do not match the "
            f"{rows}x{cols} block grid of plane {plane.shape}"
        )
    base_hy = 2 * s * np.arange(rows, dtype=np.int64)[:, None] + hy
    base_hx = 2 * s * np.arange(cols, dtype=np.int64)[None, :] + hx
    if (
        (base_hy < 0).any()
        or (base_hy > 2 * (h - s)).any()
        or (base_hx < 0).any()
        or (base_hx > 2 * (w - s)).any()
    ):
        raise ValueError(f"motion field leaves the {h}x{w} reference plane")
    return get_backend().mc_gather(plane.half_plane, base_hy, base_hx, s)


def frame_mc_chroma(
    plane: ReferencePlane,
    field_hx: np.ndarray,
    field_hy: np.ndarray,
    p: int,
    block_size: int = 8,
) -> np.ndarray:
    """Motion-compensated chroma prediction of a whole frame.

    ``plane`` is one chroma plane's :class:`ReferencePlane`;
    ``field_hx``/``field_hy`` are the *luma* motion component grids.
    The derived chroma vectors are clamped into each block's legal
    chroma window (away-from-zero rounding can exceed the luma-implied
    support by one half-pel at the frame border), exactly mirroring
    :func:`repro.codec.macroblock.predict_chroma_block`.
    """
    s = block_size
    h, w = plane.shape
    rows, cols = h // s, w // s
    hx = np.asarray(field_hx, dtype=np.int64)
    hy = np.asarray(field_hy, dtype=np.int64)
    if hx.shape != (rows, cols) or hy.shape != (rows, cols):
        raise ValueError(
            f"motion grids {hx.shape}/{hy.shape} do not match the "
            f"{rows}x{cols} block grid of chroma plane {plane.shape}"
        )
    chx, chy = chroma_mv_grids(hx, hy)
    dx_min, dx_max, dy_min, dy_max = _window_bounds(h, w, s, p)
    chx = np.clip(chx, 2 * dx_min[None, :], 2 * dx_max[None, :])
    chy = np.clip(chy, 2 * dy_min[:, None], 2 * dy_max[:, None])
    base_hy = 2 * s * np.arange(rows, dtype=np.int64)[:, None] + chy
    base_hx = 2 * s * np.arange(cols, dtype=np.int64)[None, :] + chx
    return get_backend().mc_gather(plane.half_plane, base_hy, base_hx, s)


def tile_blocks(blocks: np.ndarray) -> np.ndarray:
    """``(rows, cols, s, s)`` block grid → ``(rows*s, cols*s)`` plane."""
    if blocks.ndim != 4 or blocks.shape[2] != blocks.shape[3]:
        raise ValueError(f"need a (rows, cols, s, s) block grid, got {blocks.shape}")
    rows, cols, s, _ = blocks.shape
    return blocks.transpose(0, 2, 1, 3).reshape(rows * s, cols * s)


def tile_luma_blocks(blocks: np.ndarray) -> np.ndarray:
    """``(rows, cols, 4, 8, 8)`` macroblock stacks in H.263 block order
    (TL, TR, BL, BR) → the ``(rows*16, cols*16)`` luma plane — the
    whole-frame :func:`repro.codec.macroblock.join_luma_blocks`."""
    if blocks.ndim != 5 or blocks.shape[2:] != (4, 8, 8):
        raise ValueError(f"need (rows, cols, 4, 8, 8) stacks, got {blocks.shape}")
    rows, cols = blocks.shape[:2]
    quad = blocks.reshape(rows, cols, 2, 2, 8, 8)
    return quad.transpose(0, 2, 4, 1, 3, 5).reshape(rows * 16, cols * 16)


def split_frame_blocks(y: np.ndarray, cb: np.ndarray, cr: np.ndarray) -> np.ndarray:
    """(Y, Cb, Cr) planes → the ``(rows, cols, 6, 8, 8)`` float64 block
    grid, each macroblock's blocks in H.263 order (Y0..Y3 as TL, TR, BL,
    BR, then Cb, Cr) — the inverse of :func:`tile_luma_blocks` /
    :func:`tile_blocks`, and the whole-frame
    :func:`repro.codec.macroblock.split_luma_blocks`."""
    rows, cols = y.shape[0] // 16, y.shape[1] // 16
    if y.shape != (16 * rows, 16 * cols) or cb.shape != cr.shape or cb.shape != (8 * rows, 8 * cols):
        raise ValueError(f"planes {y.shape}/{cb.shape}/{cr.shape} do not form a 4:2:0 macroblock grid")
    grid = np.empty((rows, cols, 6, 8, 8), dtype=np.float64)
    luma = y.reshape(rows, 2, 8, cols, 2, 8).transpose(0, 3, 1, 4, 2, 5)
    grid[:, :, :4] = luma.reshape(rows, cols, 4, 8, 8)
    grid[:, :, 4] = cb.reshape(rows, 8, cols, 8).transpose(0, 2, 1, 3)
    grid[:, :, 5] = cr.reshape(rows, 8, cols, 8).transpose(0, 2, 1, 3)
    return grid


def composite_predictions(choice: np.ndarray, predict) -> tuple[np.ndarray, ...]:
    """Whole-frame prediction planes where macroblock ``(r, c)`` comes
    from reference ``choice[r, c]``.

    ``predict(k)`` returns reference ``k``'s whole-frame ``(Y, Cb, Cr)``
    prediction; it is called once per distinct entry of ``choice``, in
    ascending order, and a single distinct entry returns its planes
    unchanged.
    """
    refs = np.unique(choice).tolist()
    if len(refs) == 1:
        return tuple(predict(refs[0]))
    out = None
    for k in refs:
        planes = predict(k)
        if out is None:
            out = tuple(np.empty_like(plane) for plane in planes)
        mask = choice == k
        for dst, src in zip(out, planes):
            scale = dst.shape[0] // mask.shape[0]
            plane_mask = np.repeat(np.repeat(mask, scale, axis=0), scale, axis=1)
            dst[plane_mask] = src[plane_mask]
    return out


def add_residual_clip(prediction: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """Reconstruct a stored plane: ``clip(rint(residual + prediction))``
    back to uint8 — elementwise identical to the per-block decoder
    arithmetic, applied to whole planes at once."""
    return np.clip(np.rint(residual + prediction), 0, 255).astype(np.uint8)
