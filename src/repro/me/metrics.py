"""Block-matching error metrics from Section 2-3 of the paper.

* ``sad``             — Sum of Absolute Differences (the D term).
* ``intra_sad``       — Σ|p(i,j) − µ| over a block: the texture/activity
                        measure ACBM's classifier keys on.
* ``sad_deviation``   — Σ(SAD(u,v) − SAD_min) over all evaluated
                        candidates: the spread measure of the Fig. 4 rig.
* ``sad_map``         — vectorized SAD of one block against every
                        position of a search window (full-search core).

All functions take ``uint8`` (or wider integer) planes and return exact
integer results (Python ints / int64 arrays); ``intra_sad`` is float
because the block mean generally isn't integral.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.video.frame import MACROBLOCK_SIZE


def _as_int(block: np.ndarray) -> np.ndarray:
    arr = np.asarray(block)
    if arr.ndim != 2:
        raise ValueError(f"block must be 2-D, got shape {arr.shape}")
    return arr.astype(np.int64)


def sad(block_a: np.ndarray, block_b: np.ndarray) -> int:
    """Sum of absolute differences between two equal-shaped blocks."""
    a = _as_int(block_a)
    b = _as_int(block_b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return int(np.abs(a - b).sum())


def intra_sad(block: np.ndarray) -> float:
    """Paper Section 3.1: ``Intra_SAD = Σ_{i,j} |p_t(i,j) − µ|`` with µ
    the block's mean luma.  High values flag textured blocks."""
    b = _as_int(block).astype(np.float64)
    return float(np.abs(b - b.mean()).sum())


def sad_deviation(sads: np.ndarray) -> int:
    """Paper Section 3.1: ``SAD_deviation = Σ_{u,v} (SAD(u,v) − SAD_min)``
    over every candidate evaluated by the full search.  Sharp, unique
    minima (reliable vectors) give large values."""
    arr = np.asarray(sads, dtype=np.int64)
    if arr.size == 0:
        raise ValueError("sad_deviation needs at least one candidate SAD")
    if (arr < 0).any():
        raise ValueError("SAD values must be >= 0")
    return int((arr - arr.min()).sum())


def sad_map(block: np.ndarray, window: np.ndarray) -> np.ndarray:
    """SAD of ``block`` against every aligned position inside ``window``.

    Returns an int64 array of shape
    ``(window_h - block_h + 1, window_w - block_w + 1)`` where entry
    ``(i, j)`` is the SAD against ``window[i:i+bh, j:j+bw]``.
    """
    b = _as_int(block)
    w = _as_int(window)
    bh, bw = b.shape
    if w.shape[0] < bh or w.shape[1] < bw:
        raise ValueError(f"window {w.shape} smaller than block {b.shape}")
    # int16 differences are exact for uint8 inputs and halve memory
    # traffic relative to int64 before the reduction.
    views = sliding_window_view(w.astype(np.int16), (bh, bw))
    diff = np.abs(views - b.astype(np.int16))
    return diff.sum(axis=(2, 3), dtype=np.int64)


def block_activity_map(plane: np.ndarray) -> np.ndarray:
    """Intra_SAD for every 16x16 macroblock of a plane at once.

    Shape ``(H // 16, W // 16)``; ACBM's classifier input and the Fig. 4
    rig's Intra_SAD axis.
    """
    s = MACROBLOCK_SIZE
    p = _as_int(plane).astype(np.float64)
    h, w = p.shape
    if h % s or w % s:
        raise ValueError(f"plane {p.shape} not a multiple of block size {s}")
    rows, cols = h // s, w // s
    blocks = p.reshape(rows, s, cols, s).transpose(0, 2, 1, 3)
    means = blocks.mean(axis=(2, 3), keepdims=True)
    return np.abs(blocks - means).sum(axis=(2, 3))
