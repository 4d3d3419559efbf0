"""Batched SAD kernels: whole-frame search surfaces and candidate scoring.

The hot path of the reproduction is candidate evaluation.  The seed did
it one block and one candidate at a time; these kernels process a whole
frame per NumPy pass:

* :func:`block_sad_surfaces` — the complete +-p SAD surface of any
  list of macroblocks against the reference: ACBM's critical blocks,
  or every block through :func:`frame_sad_surfaces` (FSBM, the Fig. 4
  rig).  The listed blocks' windows are gathered with the block index
  as the innermost axis, so each displacement row is a handful of
  NumPy passes over all N blocks at once.
* :func:`select_minima` — vectorized minimum pick over any stack of
  surfaces with the full search's exact shortest-vector tie-break.
* :func:`refine_half_pel_batch` — the 8-neighbour half-pel stage for
  every block (or any subset of blocks) at once, reading
  :class:`ReferencePlane`'s cached plane.
* :func:`evaluate_candidates_batch` — arbitrary (block, displacement)
  candidate lists scored in one gather; every stage of the predictive
  and pattern searches (:class:`repro.me.candidates.BatchEvaluator`).

Every kernel searches the codec's 16x16 macroblocks
(:data:`repro.video.frame.MACROBLOCK_SIZE`, the paper's H.263 setting)
on 2-D ``uint8`` planes with ``1 <= p <= 31``
(:func:`check_search_envelope`); no kernel takes a block size, and
nothing outside that envelope has a second path.  All outputs are
bit-exact with the per-block reference implementations
(:func:`repro.me.full_search.full_search_sads`,
:func:`repro.me.full_search.select_minimum`,
:func:`repro.me.subpel.refine_half_pel`, and the dense oracle
:func:`repro.reference.frame_sad_surfaces`); ``tests/test_engine.py``
asserts the equivalence property-style.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from repro.kernels import get_backend
from repro.me.engine.reference_plane import ReferencePlane
from repro.obs import metrics
from repro.video.frame import MACROBLOCK_SIZE

#: Blocks whose full +-p surface the kernel computed (every block of an
#: FSBM frame, each critical block once per ACBM frame).
_MET_FS_BLOCKS = metrics.counter("me.fs_blocks")

#: Marks displacements whose candidate block leaves the reference plane.
#: Larger than any real SAD (16 x 16 x 255 = 65280) so plain ``min``
#: never selects it, yet small enough that int32 arithmetic stays exact.
SURFACE_SENTINEL = np.int32(1) << 30


def _block_windows(plane: np.ndarray, s: int, step: int = 1) -> np.ndarray:
    """Read-only view ``out[y, x]`` = the ``s x s`` block whose top-left
    sample is ``plane[y, x]``, taking every ``step``-th sample.  Indexing
    its first two axes with arrays of origins copies whole blocks — no
    per-pixel index arrays, no cast of the plane — which is what makes
    the candidate gathers cheap for one block and for a whole frame."""
    span = step * (s - 1)
    rs, cs = plane.strides
    return as_strided(
        plane,
        (plane.shape[0] - span, plane.shape[1] - span, s, s),
        (rs, cs, step * rs, step * cs),
        writeable=False,
    )


def _luma(reference: np.ndarray | ReferencePlane) -> np.ndarray:
    return reference.luma if isinstance(reference, ReferencePlane) else np.asarray(reference)


#: Largest search range: the packed tie-break key holds each
#: displacement field in 6 bits (``2p <= 63``), and the picture header
#: carries p in 5 bits.
MAX_P = 31


def check_search_envelope(p: int) -> None:
    """Raise ``ValueError`` unless ``1 <= p <=`` :data:`MAX_P` — the
    only search range the kernels serve."""
    if not 1 <= p <= MAX_P:
        raise ValueError(
            f"p must be in 1..{MAX_P} (the tie-break key packs each displacement "
            f"in 6 bits and the picture header stores p in 5 bits), got {p}"
        )


def check_planes(current: np.ndarray, reference: np.ndarray) -> None:
    """Raise ``ValueError`` unless both planes are 2-D ``uint8`` of one
    shape whose sides are multiples of :data:`MACROBLOCK_SIZE`."""
    for role, arr in (("current", current), ("reference", reference)):
        if arr.ndim != 2 or arr.dtype != np.uint8:
            raise ValueError(f"{role} plane must be 2-D uint8, got {arr.dtype} of shape {arr.shape}")
    if current.shape != reference.shape:
        raise ValueError(f"plane shapes differ: {current.shape} vs {reference.shape}")
    h, w = current.shape
    if h % MACROBLOCK_SIZE or w % MACROBLOCK_SIZE:
        raise ValueError(f"plane {current.shape} not a multiple of block size {MACROBLOCK_SIZE}")


# -- window geometry, vectorized over the block grid ---------------------


def window_bounds(
    plane_h: int, plane_w: int, block_size: int, p: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(dx_min, dx_max, dy_min, dy_max) per block column/row, the
    vectorized :func:`repro.me.search_window.clamped_window`: the
    ``dx`` bounds index by block column, the ``dy`` bounds by block row."""
    s = block_size
    xs = np.arange(plane_w // s) * s
    ys = np.arange(plane_h // s) * s
    return (
        np.maximum(-p, -xs),
        np.minimum(p, plane_w - s - xs),
        np.maximum(-p, -ys),
        np.minimum(p, plane_h - s - ys),
    )


def sad_deviations(surfaces: np.ndarray) -> np.ndarray:
    """Per-block ``SAD_deviation`` (paper Section 3.1) of a
    :func:`frame_sad_surfaces` array: the sum of ``SAD(u, v) - SAD_min``
    over every valid candidate, vectorized over the whole grid for the
    Fig. 4 rig."""
    valid = surfaces != SURFACE_SENTINEL
    totals = np.where(valid, surfaces.astype(np.int64), 0).sum(axis=(2, 3))
    minima = np.where(valid, surfaces, np.int32(np.iinfo(np.int32).max)).min(axis=(2, 3))
    return totals - minima.astype(np.int64) * valid.sum(axis=(2, 3))


def frame_sad_surfaces(
    current: np.ndarray, reference: np.ndarray | ReferencePlane, p: int = 15
) -> np.ndarray:
    """Full +-p SAD surfaces for every macroblock of a frame:
    :func:`block_sad_surfaces` over the whole grid as a ``(rows, cols,
    2p+1, 2p+1)`` int32 array, where ``out[r, c, i, j]`` is block ``(r,
    c)``'s SAD at ``(dy, dx) = (i - p, j - p)`` and
    :data:`SURFACE_SENTINEL` marks displacements whose candidate leaves
    the plane.  Equivalent to calling
    :func:`repro.me.full_search.full_search_sads` per block.  Takes 2-D
    ``uint8`` planes inside :func:`check_search_envelope`; the dense
    one-displacement-at-a-time oracle is
    :func:`repro.reference.frame_sad_surfaces`.
    """
    cur = np.asarray(current)
    ref = _luma(reference)
    check_search_envelope(p)
    check_planes(cur, ref)
    rows, cols = cur.shape[0] // MACROBLOCK_SIZE, cur.shape[1] // MACROBLOCK_SIZE
    surf = block_sad_surfaces(cur, ref, *np.divmod(np.arange(rows * cols), cols), p)
    return surf.reshape(rows, cols, 2 * p + 1, 2 * p + 1)


def block_sad_surfaces(
    current: np.ndarray,
    reference: np.ndarray | ReferencePlane,
    mb_rows: np.ndarray,
    mb_cols: np.ndarray,
    p: int,
) -> np.ndarray:
    """Full +-p SAD surfaces of the listed macroblocks.

    ``mb_rows``/``mb_cols`` are ``(N,)`` macroblock coordinates, in any
    order and with repeats allowed.  Returns ``(N, 2p+1, 2p+1)`` int32
    where ``out[b, i, j]`` is block ``b``'s SAD at ``(dy, dx) = (i - p,
    j - p)`` and :data:`SURFACE_SENTINEL` marks displacements whose
    candidate leaves the plane.  Callers stay inside
    :func:`check_search_envelope` with uint8 planes.  Counts the
    blocks into ``me.fs_blocks``.
    """
    _MET_FS_BLOCKS.inc(len(mb_rows))
    return get_backend().sad_surfaces(
        np.asarray(current),
        _luma(reference),
        np.asarray(mb_rows, dtype=np.int64),
        np.asarray(mb_cols, dtype=np.int64),
        p,
    )


def sad_surfaces_numpy(
    cur: np.ndarray, ref: np.ndarray, mb_rows: np.ndarray, mb_cols: np.ndarray, p: int
) -> np.ndarray:
    """Block-list surface core — the numpy backend's binding for the
    ``sad_surfaces`` ABI entry.

    Each listed block's ``(s+2p)^2`` window of the zero-padded
    reference is gathered with the block index innermost, so one
    strided view per ``dy`` lines up every ``(y, dx, x)`` candidate
    sample of all N blocks and each NumPy pass runs over N contiguous
    lanes.  The abs-differences are summed in uint16 — a whole block's
    SAD is at most ``16^2 * 255 = 65280 < 2^16`` — by a tree over y,
    then x.  The zero padding makes out-of-plane displacements finite
    garbage; the sentinel is stamped over them from :func:`window_bounds`.
    """
    s = MACROBLOCK_SIZE
    h, w = cur.shape
    n = 2 * p + 1
    dx_min, dx_max, dy_min, dy_max = window_bounds(h, w, s, p)
    dy_lo, dy_hi = dy_min[mb_rows], dy_max[mb_rows]
    dx_lo, dx_hi = dx_min[mb_cols], dx_max[mb_cols]
    d = np.arange(-p, p + 1)
    outside = ((d < dy_lo[:, None]) | (d > dy_hi[:, None]))[:, :, None] | (
        (d < dx_lo[:, None]) | (d > dx_hi[:, None])
    )[:, None, :]
    surf = np.zeros((mb_rows.size, n, n), dtype=np.int32)
    if mb_rows.size:
        ys, xs = mb_rows * s, mb_cols * s
        rpad = np.zeros((h + 2 * p, w + 2 * p), dtype=np.uint8)
        rpad[p : p + h, p : p + w] = ref
        # win[y, x, b]: block b's window, padded coordinates; blk likewise.
        win = np.ascontiguousarray(
            _block_windows(rpad, s + 2 * p)[ys, xs].transpose(1, 2, 0), np.int16
        )
        blk = np.ascontiguousarray(_block_windows(cur, s)[ys, xs].transpose(1, 2, 0), np.int16)
        # Only the displacement rows/columns some listed block can use.
        k0, k1 = dx_lo.min() + p, dx_hi.max() + p + 1
        diff = np.empty((s, k1 - k0, s, mb_rows.size), dtype=np.int16)
        for i in range(dy_lo.min() + p, dy_hi.max() + p + 1):
            # view[y, k, x, b] = win[i + y, k0 + k + x, b]
            view = sliding_window_view(win[i : i + s, k0 : k1 + s - 1], s, axis=1)
            np.abs(np.subtract(blk[:, None], view.transpose(0, 1, 3, 2), out=diff), out=diff)
            # Fold y in place (contiguous halves, no temporaries), then
            # tree-sum x on the one remaining (k, s, N) slab.
            acc = diff.view(np.uint16)
            half = s // 2
            while half:
                np.add(acc[:half], acc[half : 2 * half], out=acc[:half])
                half //= 2
            acc = acc[0]
            while acc.shape[1] > 1:
                acc = acc[:, : acc.shape[1] // 2] + acc[:, acc.shape[1] // 2 :]
            surf[:, i, k0:k1] = acc[:, 0].T
    surf[outside] = SURFACE_SENTINEL
    return surf


def tiebreak_keys(dx: np.ndarray, dy: np.ndarray, p: int) -> np.ndarray:
    """The shortest-vector tie-break key ``(max(|dx|, |dy|), |dy|, |dx|,
    dy, dx)`` packed lexicographically into 30 bits (int64, broadcast
    over ``dx``/``dy``).  Each field spans ``[0, 2p]``, so 6 bits per
    field hold it up to :data:`MAX_P`.  Distinct displacements
    get distinct keys, so ``SAD << 30 | key`` ranks candidates exactly
    as :class:`repro.me.candidates.CandidateEvaluator` and
    :func:`repro.me.full_search.select_minimum` do."""
    dx = np.asarray(dx, dtype=np.int64)
    dy = np.asarray(dy, dtype=np.int64)
    adx, ady = np.abs(dx), np.abs(dy)
    key = np.maximum(adx, ady)
    return (((key * 64 + ady) * 64 + adx) * 64 + dy + p) * 64 + dx + p


def select_minima(surfaces: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Minimum-SAD displacement of every surface with the full search's
    shortest-vector tie-break.

    ``surfaces`` is any stack ``(..., 2p+1, 2p+1)`` in the
    :func:`block_sad_surfaces` layout: ``(N, n, n)`` for a block list,
    :func:`frame_sad_surfaces` for the whole grid.  Returns
    ``(dx, dy, sads, positions)`` shaped like the leading axes — the
    integer-pel displacement, the winning SAD (int64) and the number of
    valid positions (the entries that are not
    :data:`SURFACE_SENTINEL`, i.e. the clipped window's
    ``num_positions``).  Identical block-for-block to
    :func:`repro.me.full_search.select_minimum`.
    """
    n = surfaces.shape[-1]
    d = np.arange(n * n)
    dy, dx = d // n - n // 2, d % n - n // 2
    # rank[k]: displacement k's place in the order of the key
    # (max(|dx|, |dy|), |dy|, |dx|, dy, dx) — any p, no bit packing.
    rank = np.empty(n * n, dtype=np.int32)
    rank[np.lexsort((dx, dy, abs(dx), abs(dy), np.maximum(abs(dx), abs(dy))))] = d
    flat = surfaces.reshape(-1, n * n)
    minima = flat.min(axis=1)
    best = np.where(flat == minima[:, None], rank, n * n).argmin(axis=1)
    dy, dx = dy[best], dx[best]
    positions = np.count_nonzero(flat != SURFACE_SENTINEL, axis=1)
    return tuple(
        a.astype(np.int64).reshape(surfaces.shape[:-2])
        for a in (dx, dy, minima, positions)
    )


def refine_half_pel_batch(
    current: np.ndarray,
    plane: ReferencePlane,
    anchor_dx: np.ndarray,
    anchor_dy: np.ndarray,
    anchor_sads: np.ndarray,
    p: int,
    blocks: "tuple[np.ndarray, np.ndarray] | None" = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The 8-neighbour half-pel stage for many blocks at once.

    Anchors are integer-pel displacements (pixels); returns
    ``(hx, hy, sads, evaluated)`` in half-pel units, replaying the
    strict-improvement update of
    :func:`repro.me.subpel.refine_half_pel` in the same neighbour
    order so ties resolve identically.  Without ``blocks`` the anchors
    are ``(rows, cols)`` grids covering every macroblock; ``blocks =
    (mb_rows, mb_cols)`` restricts the stage to those ``(N,)``
    macroblocks, with the anchors and results as matching ``(N,)``
    arrays.
    """
    # Imported at call time: subpel imports this package for
    # ReferencePlane, so a module-level import here would cycle
    # through the package __init__.  The order of this tuple is
    # observable (strict-improvement tie resolution) — share the one
    # definition rather than risking a stale copy.
    from repro.me.subpel import HALF_PEL_NEIGHBOURS

    h, w = plane.shape
    grid = blocks is None
    if grid:
        rows, cols = h // MACROBLOCK_SIZE, w // MACROBLOCK_SIZE
        mb_rows, mb_cols = np.divmod(np.arange(rows * cols, dtype=np.int64), cols)
    else:
        mb_rows, mb_cols = blocks
    out = get_backend().refine_half_pel(
        np.asarray(current),
        plane.half_plane,
        np.asarray(mb_rows, dtype=np.int64),
        np.asarray(mb_cols, dtype=np.int64),
        np.asarray(anchor_dx, dtype=np.int64).ravel(),
        np.asarray(anchor_dy, dtype=np.int64).ravel(),
        np.asarray(anchor_sads, dtype=np.int64).ravel(),
        p,
        h,
        w,
        np.asarray(HALF_PEL_NEIGHBOURS, dtype=np.int64),
    )
    return tuple(a.reshape(rows, cols) for a in out) if grid else out


def refine_half_pel_numpy(
    current: np.ndarray,
    half: np.ndarray,
    mb_rows: np.ndarray,
    mb_cols: np.ndarray,
    anchor_dx: np.ndarray,
    anchor_dy: np.ndarray,
    anchor_sads: np.ndarray,
    p: int,
    h: int,
    w: int,
    offs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized half-pel core — the numpy backend's binding for the
    ``refine_half_pel`` ABI entry.  ``half`` is the cached half-pel
    plane; ``offs`` is the (8, 2) neighbour table as (dhx, dhy) whose
    order decides strict-improvement ties; every other array is one
    entry per refined macroblock."""
    s = MACROBLOCK_SIZE
    by = mb_rows * s
    bx = mb_cols * s
    cur_blocks = _block_windows(np.asarray(current), s)[by, bx].astype(np.int16)
    dx_min, dx_max = np.maximum(-p, -bx), np.minimum(p, w - s - bx)
    dy_min, dy_max = np.maximum(-p, -by), np.minimum(p, h - s - by)
    anchor_hx = 2 * anchor_dx
    anchor_hy = 2 * anchor_dy
    hx = anchor_hx[None, :] + offs[:, 0, None]  # (8, N)
    hy = anchor_hy[None, :] + offs[:, 1, None]
    valid = (hx >= 2 * dx_min) & (hx <= 2 * dx_max) & (hy >= 2 * dy_min) & (hy <= 2 * dy_max)
    # A candidate block reads every other half-plane sample from its
    # half-pel origin.
    pred = _block_windows(half, s, step=2)[
        np.where(valid, 2 * by + hy, 0), np.where(valid, 2 * bx + hx, 0)
    ].astype(np.int16)  # (8, N, s, s)
    sads = np.abs(pred - cur_blocks[None]).reshape(8, -1, s * s).sum(axis=2, dtype=np.int64)
    best_hx, best_hy = anchor_hx.copy(), anchor_hy.copy()
    best_sad = np.asarray(anchor_sads, dtype=np.int64).copy()
    unreachable = np.int64(1) << 60
    for k in range(8):
        cand = np.where(valid[k], sads[k], unreachable)
        better = cand < best_sad
        best_sad = np.where(better, cand, best_sad)
        best_hx = np.where(better, hx[k], best_hx)
        best_hy = np.where(better, hy[k], best_hy)
    return best_hx, best_hy, best_sad, valid.sum(axis=0).astype(np.int64)


#: Cost sentinel for intra modes whose neighbours fall outside the
#: picture (vertical on the top macroblock row, horizontal on the left
#: column).  Far above any real SAD (a 16x16 uint8 block caps at
#: 255 * 256) yet safely below int64 overflow under sums/compares.
INTRA_UNAVAILABLE_COST = 1 << 62


def intra_mode_cost_surfaces(y: np.ndarray) -> np.ndarray:
    """Open-loop SAD of every intra prediction mode for every macroblock.

    Returns a ``(3, rows, cols)`` ``int64`` surface ordered DC /
    vertical / horizontal (:mod:`repro.codec.intra` mode indices),
    computed against the *source* luma — the batched twin of
    :func:`repro.codec.intra.intra_mode_costs_reference`, integer-exact
    with it so the engine and seed encoder paths choose identical modes
    (and therefore emit identical bytes).  Unavailable modes carry
    :data:`INTRA_UNAVAILABLE_COST`.
    """
    return get_backend().intra_mode_costs(y)


def intra_mode_costs_numpy(y: np.ndarray) -> np.ndarray:
    """Vectorized mode-cost core — the numpy backend's binding for the
    ``intra_mode_costs`` ABI entry."""
    s = MACROBLOCK_SIZE
    rows, cols = y.shape[0] // s, y.shape[1] // s
    cur = y.astype(np.int64)
    blocks = cur.reshape(rows, s, cols, s)
    costs = np.full((3, rows, cols), INTRA_UNAVAILABLE_COST, dtype=np.int64)
    costs[0] = np.abs(blocks - 128).sum(axis=(1, 3))
    if rows > 1:
        # Row directly above each block below the top row: plane rows
        # s-1, 2s-1, ... broadcast down the block height.
        above = cur[s - 1 :: s][: rows - 1].reshape(rows - 1, 1, cols, s)
        costs[1, 1:] = np.abs(blocks[1:] - above).sum(axis=(1, 3))
    if cols > 1:
        # Column directly left of each block right of the left column,
        # broadcast across the block width.
        left = cur[:, s - 1 :: s][:, : cols - 1].reshape(rows, s, cols - 1, 1)
        costs[2, :, 1:] = np.abs(blocks[:, :, 1:] - left).sum(axis=(1, 3))
    return costs


def evaluate_candidates_batch(
    current: np.ndarray,
    reference: np.ndarray | ReferencePlane,
    block_ys: np.ndarray,
    block_xs: np.ndarray,
    dys: np.ndarray,
    dxs: np.ndarray,
) -> np.ndarray:
    """Integer-pel SADs for arbitrary candidate lists over many
    macroblocks.

    ``block_ys``/``block_xs`` are ``(N,)`` block pixel origins;
    ``dys``/``dxs`` are ``(N, K)`` displacement grids.  Returns an
    ``(N, K)`` int64 array with ``-1`` marking displacements whose
    candidate block leaves the reference plane.  One fancy-indexed
    gather replaces ``N*K`` Python-level slice-and-sum round trips.
    """
    cur = np.asarray(current)
    ref = _luma(reference)
    return get_backend().evaluate_candidates(cur, ref, block_ys, block_xs, dys, dxs)


def evaluate_candidates_numpy(
    cur: np.ndarray,
    ref: np.ndarray,
    block_ys: np.ndarray,
    block_xs: np.ndarray,
    dys: np.ndarray,
    dxs: np.ndarray,
) -> np.ndarray:
    """Fancy-indexed candidate-scoring core — the numpy backend's
    binding for the ``evaluate_candidates`` ABI entry."""
    s = MACROBLOCK_SIZE
    h, w = ref.shape
    by = np.asarray(block_ys, dtype=np.int64)
    bx = np.asarray(block_xs, dtype=np.int64)
    dy = np.asarray(dys, dtype=np.int64)
    dx = np.asarray(dxs, dtype=np.int64)
    y0 = by[:, None] + dy
    x0 = bx[:, None] + dx
    valid = (y0 >= 0) & (y0 + s <= h) & (x0 >= 0) & (x0 + s <= w)
    cand = _block_windows(ref, s)[np.where(valid, y0, 0), np.where(valid, x0, 0)]
    blocks = _block_windows(cur, s)[by, bx][:, None]  # (N, 1, s, s)
    # |a - b| as max - min never wraps, so uint8 needs no widening.
    diff = np.maximum(cand, blocks) - np.minimum(cand, blocks)
    sads = diff.reshape(dy.shape[0], dy.shape[1], s * s).sum(axis=2, dtype=np.int64)
    return np.where(valid, sads, np.int64(-1))
