"""Compiled kernel backend: ``@njit(cache=True)`` scalar loops.

Every kernel here is written twice over in spirit but once in code: the
functions below are *plain* Python — nopython-compatible scalar loops
over NumPy arrays — and :func:`_ensure_jitted` rebinds each of them to
its ``numba.njit(cache=True)`` dispatcher the first time the backend is
built.  Compilation itself stays lazy (numba compiles a dispatcher on
first call with concrete types), so importing this module costs nothing
and the JIT warm-up lands on the first frame, not on process start.

That single-source arrangement is also the test strategy on machines
without numba: ``make_backend(jit=False)`` returns a ``"numba-sim"``
backend running the identical kernel bodies un-jitted, so the bit-
identity suites exercise every compiled code path (LUT walks, grammar
kernels, SAD loops) even where numba cannot import.  Slow, hence the
sim tests run tiny geometries.

Design rules the kernels obey (see ``repro.kernels.api``):

* tables (packed LUTs, zig-zag) arrive as **arguments**, never as numba
  globals — global-array freezing interacts badly with ``cache=True``;
  the one global the search kernels read is the scalar
  ``MACROBLOCK_SIZE``, which numba compiles in as a constant;
* integer kernels are exact, so results are bit-identical to the numpy
  backend by construction;
* the IDCT is **not** reimplemented: this backend binds the same
  float64 matmul as the numpy backend (compiled reassociation of the
  sums could flip an exact-half ``rint`` case and break the codec's
  closed loop);
* the VLC kernels read from an untouched cursor snapshot through a
  49-bit zero-padded window (:func:`k_peek49`) and report *any*
  deviation — invalid prefix, truncation, illegal value — as a
  fallback status without side effects; the caller replays the same
  bits through the Python path, which raises the codec's exact errors.
"""

from __future__ import annotations

import numpy as np

from repro.codec.dct import inverse_dct
from repro.codec.quantizer import dequantize_intra_dc_numpy
from repro.kernels.api import KernelBackend
from repro.kernels.lut_pack import (
    CBPY_FIRST_BITS,
    MCBPC_FIRST_BITS,
    PACKED_CBPY,
    PACKED_MCBPC,
    PACKED_TCOEF,
    TCOEF_ESCAPE_ID,
    TCOEF_FIRST_BITS,
    ZIGZAG,
)
from repro.video.frame import MACROBLOCK_SIZE

#: SAD surface sentinel — mirrors repro.me.engine.kernels.SURFACE_SENTINEL
#: (imported lazily in the wrappers to keep this module import-light; the
#: kernels need the plain int).
_SENTINEL = 1 << 30

#: Intra-mode sentinel — repro.me.engine.kernels.INTRA_UNAVAILABLE_COST.
_INTRA_UNAVAILABLE = 1 << 62

#: Bits in the zero-padded peek window: 7 whole bytes minus up to 7 bits
#: of intra-byte offset.  49 bits covers every code the codec emits in
#: one peek (longest TCOEF cascade ≈ 22 bits, escape payload 15, ue
#: prefixes the compiled path accepts cap at 2*24+1).
_WINDOW_BITS = 49
_WINDOW_MASK = (1 << _WINDOW_BITS) - 1

#: Sub-table link flag in the packed LUTs (repro.kernels.lut_pack).
_SUB_FLAG = 0x40000000


# -- bit cursor ------------------------------------------------------------
#
# The compiled readers never mutate shared state: a "cursor" is just a
# bit position into the frame's byte buffer, threaded through every
# kernel and handed back to BitReader.advance_to() on success.


def k_peek49(data, pos):
    """The next 49 bits at ``pos``, MSB-first, zero-padded past EOF.

    Assembles 7 bytes (never 8 — a 56-bit value cannot overflow int64
    whatever the offset) and drops the 0..7 leading bits of intra-byte
    offset, guaranteeing a full 49-bit window."""
    b = pos >> 3
    n = data.shape[0]
    acc = np.int64(0)
    for i in range(7):
        acc = acc << 8
        if b + i < n:
            acc = acc | np.int64(data[b + i])
    return (acc >> np.int64(7 - (pos & 7))) & np.int64(_WINDOW_MASK)


def k_read_bits(data, pos, count, nbits):
    """``(value, new_pos)``; value is ``-1`` when the read would pass
    the end of the stream (count must stay <= 49)."""
    if count > nbits - pos:
        return np.int64(-1), pos
    window = k_peek49(data, pos)
    return (window >> np.int64(_WINDOW_BITS - count)) & np.int64((1 << count) - 1), pos + count


def k_read_vlc(data, pos, nbits, lut, first_bits):
    """One prefix code off a packed LUT cascade: ``(symbol_id, new_pos)``
    or ``(-1, pos)`` to fall back (invalid prefix, truncation, or a
    cascade deeper than the peek window)."""
    window = k_peek49(data, pos)
    base = 0
    width = first_bits
    total = first_bits
    while True:
        if total > _WINDOW_BITS:
            return np.int64(-1), pos
        idx = (window >> np.int64(_WINDOW_BITS - total)) & np.int64((1 << width) - 1)
        entry = lut[base + idx]
        if entry == -1:
            return np.int64(-1), pos
        if entry & _SUB_FLAG:
            width = (entry >> 24) & 0x3F
            base = entry & 0xFFFFFF
            total += width
        else:
            length = entry >> 16
            if length > nbits - pos:
                return np.int64(-1), pos
            return np.int64(entry & 0xFFFF), pos + length


def k_read_ue(data, pos, nbits):
    """Unsigned exp-Golomb: ``(value, new_pos)`` or ``(-1, pos)`` for
    prefixes the window cannot hold or truncated codes.  Where it
    succeeds it matches ``BitReader.read_ue`` and the bitwise reference
    loop exactly."""
    window = k_peek49(data, pos)
    if window == 0:
        return np.int64(-1), pos
    zeros = 0
    probe = np.int64(1) << np.int64(_WINDOW_BITS - 1)
    while window & probe == 0:
        zeros += 1
        probe = probe >> np.int64(1)
    length = 2 * zeros + 1
    if length > _WINDOW_BITS or length > nbits - pos:
        return np.int64(-1), pos
    value = (window >> np.int64(_WINDOW_BITS - length)) & np.int64((1 << length) - 1)
    return value - np.int64(1), pos + length


def k_scan_block(data, pos, nbits, lut, first_bits, zigzag, out_flat, skip_first):
    """One coded block's TCOEF events into ``out_flat`` — the compiled
    twin of ``repro.codec.macroblock.read_block_levels``.

    Returns ``(new_pos, status)``; any failure (bad prefix, truncation,
    escape level 0, block overflow) is ``status=1`` with the original
    ``pos``, leaving error raising to the Python replay.  ``out_flat``
    may be partially written on failure — the caller re-zeroes it."""
    p = pos
    scan = skip_first
    overflow = -1
    while True:
        sym, p2 = k_read_vlc(data, p, nbits, lut, first_bits)
        if sym < 0:
            return pos, 1
        p = p2
        if sym == TCOEF_ESCAPE_ID:
            payload, p2 = k_read_bits(data, p, 15, nbits)
            if payload < 0:
                return pos, 1
            p = p2
            last = (payload >> np.int64(14)) & np.int64(1)
            run = (payload >> np.int64(8)) & np.int64(0x3F)
            raw = payload & np.int64(0xFF)
            level = raw - np.int64(256) if raw >= 128 else raw
            if level == 0:
                return pos, 1
        else:
            sign, p2 = k_read_bits(data, p, 1, nbits)
            if sign < 0:
                return pos, 1
            p = p2
            level = (sym & np.int64(7)) + np.int64(1)
            if sign != 0:
                level = -level
            run = (sym >> np.int64(3)) & np.int64(0x1F)
            last = (sym >> np.int64(8)) & np.int64(1)
        scan += run
        if overflow < 0:
            if scan < 64:
                out_flat[zigzag[scan]] = level
            else:
                overflow = scan
        scan += 1
        if last != 0:
            if overflow >= 0:
                return pos, 1
            return p, 0


# -- picture-body grammar kernels -----------------------------------------
#
# Whole macroblock layers in one nopython call: the compiled mirrors of
# the decoder's _parse_*_body_fast walks.  Every return carries the
# output arrays (numba needs consistent return types); status != 0 means
# "arrays are garbage, replay from pos in Python".


def k_parse_inter_body(
    data, pos, nbits, rows, cols, multi, num_refs,
    mcbpc_lut, mcbpc_bits, cbpy_lut, cbpy_bits,
    tcoef_lut, tcoef_bits, zigzag,
):
    levels = np.zeros((rows, cols, 6, 64), dtype=np.int64)
    hx = np.zeros((rows, cols), dtype=np.int64)
    hy = np.zeros((rows, cols), dtype=np.int64)
    ref_idx = np.zeros((rows, cols), dtype=np.int64)
    p = pos
    for r in range(rows):
        for c in range(cols):
            cod, p2 = k_read_bits(data, p, 1, nbits)
            if cod < 0:
                return pos, 1, levels, hx, hy, ref_idx
            p = p2
            if cod != 0:  # COD = 1: skipped, zero vector, no residual
                continue
            mcbpc, p2 = k_read_vlc(data, p, nbits, mcbpc_lut, mcbpc_bits)
            if mcbpc < 0:
                return pos, 1, levels, hx, hy, ref_idx
            p = p2
            cbpy, p2 = k_read_vlc(data, p, nbits, cbpy_lut, cbpy_bits)
            if cbpy < 0:
                return pos, 1, levels, hx, hy, ref_idx
            p = p2
            if multi != 0:
                ref, p2 = k_read_ue(data, p, nbits)
                if ref < 0 or ref >= num_refs:
                    return pos, 1, levels, hx, hy, ref_idx
                p = p2
                ref_idx[r, c] = ref
            # Median MVD predictor, inlined (repro.codec.mv_coding):
            # top row takes the left vector (zero at the corner);
            # elsewhere median of left/above/above-right with zeros for
            # out-of-picture candidates.  Skipped MBs hold zero in
            # hx/hy, which is exactly their predictor contribution.
            if r == 0:
                px = hx[0, c - 1] if c > 0 else np.int64(0)
                py = hy[0, c - 1] if c > 0 else np.int64(0)
            else:
                lx = hx[r, c - 1] if c > 0 else np.int64(0)
                ly = hy[r, c - 1] if c > 0 else np.int64(0)
                ax = hx[r - 1, c]
                ay = hy[r - 1, c]
                arx = hx[r - 1, c + 1] if c + 1 < cols else np.int64(0)
                ary = hy[r - 1, c + 1] if c + 1 < cols else np.int64(0)
                px = max(min(lx, ax), min(max(lx, ax), arx))
                py = max(min(ly, ay), min(max(ly, ay), ary))
            mapped, p2 = k_read_ue(data, p, nbits)
            if mapped < 0:
                return pos, 1, levels, hx, hy, ref_idx
            p = p2
            if mapped & 1:
                hx[r, c] = px + ((mapped + 1) >> np.int64(1))
            else:
                hx[r, c] = px - (mapped >> np.int64(1))
            mapped, p2 = k_read_ue(data, p, nbits)
            if mapped < 0:
                return pos, 1, levels, hx, hy, ref_idx
            p = p2
            if mapped & 1:
                hy[r, c] = py + ((mapped + 1) >> np.int64(1))
            else:
                hy[r, c] = py - (mapped >> np.int64(1))
            for b in range(6):
                if b < 4:
                    coded = (cbpy >> np.int64(b)) & np.int64(1)
                elif b == 4:
                    coded = (mcbpc >> np.int64(1)) & np.int64(1)
                else:
                    coded = mcbpc & np.int64(1)
                if coded != 0:
                    p2, status = k_scan_block(
                        data, p, nbits, tcoef_lut, tcoef_bits, zigzag,
                        levels[r, c, b], 0,
                    )
                    if status != 0:
                        return pos, 1, levels, hx, hy, ref_idx
                    p = p2
    return p, 0, levels, hx, hy, ref_idx


def k_parse_intra_body(
    data, pos, nbits, rows, cols,
    mcbpc_lut, mcbpc_bits, cbpy_lut, cbpy_bits,
    tcoef_lut, tcoef_bits, zigzag,
):
    n = rows * cols * 6
    levels = np.zeros((n, 64), dtype=np.int64)
    dc = np.zeros(n, dtype=np.int64)
    p = pos
    k = 0
    for _ in range(rows * cols):
        mcbpc, p2 = k_read_vlc(data, p, nbits, mcbpc_lut, mcbpc_bits)
        if mcbpc < 0:
            return pos, 1, levels, dc
        p = p2
        cbpy, p2 = k_read_vlc(data, p, nbits, cbpy_lut, cbpy_bits)
        if cbpy < 0:
            return pos, 1, levels, dc
        p = p2
        for b in range(6):
            if b < 4:
                coded = (cbpy >> np.int64(b)) & np.int64(1)
            elif b == 4:
                coded = (mcbpc >> np.int64(1)) & np.int64(1)
            else:
                coded = mcbpc & np.int64(1)
            v, p2 = k_read_bits(data, p, 8, nbits)
            if v < 0:
                return pos, 1, levels, dc
            dc[k] = v
            p = p2
            if coded != 0:
                p2, status = k_scan_block(
                    data, p, nbits, tcoef_lut, tcoef_bits, zigzag, levels[k], 1
                )
                if status != 0:
                    return pos, 1, levels, dc
                p = p2
            k += 1
    return p, 0, levels, dc


def k_parse_intra_pred_body(
    data, pos, nbits, rows, cols, mode_bits,
    mcbpc_lut, mcbpc_bits, cbpy_lut, cbpy_bits,
    tcoef_lut, tcoef_bits, zigzag,
):
    levels = np.zeros((rows, cols, 6, 64), dtype=np.int64)
    modes = np.zeros((rows, cols), dtype=np.int64)
    p = pos
    for r in range(rows):
        for c in range(cols):
            mode, p2 = k_read_bits(data, p, mode_bits, nbits)
            if mode < 0 or mode > 2:
                return pos, 1, levels, modes
            modes[r, c] = mode
            p = p2
            mcbpc, p2 = k_read_vlc(data, p, nbits, mcbpc_lut, mcbpc_bits)
            if mcbpc < 0:
                return pos, 1, levels, modes
            p = p2
            cbpy, p2 = k_read_vlc(data, p, nbits, cbpy_lut, cbpy_bits)
            if cbpy < 0:
                return pos, 1, levels, modes
            p = p2
            for b in range(6):
                if b < 4:
                    coded = (cbpy >> np.int64(b)) & np.int64(1)
                elif b == 4:
                    coded = (mcbpc >> np.int64(1)) & np.int64(1)
                else:
                    coded = mcbpc & np.int64(1)
                if coded != 0:
                    p2, status = k_scan_block(
                        data, p, nbits, tcoef_lut, tcoef_bits, zigzag,
                        levels[r, c, b], 0,
                    )
                    if status != 0:
                        return pos, 1, levels, modes
                    p = p2
    return p, 0, levels, modes


# -- compute kernels -------------------------------------------------------


def k_sad_surfaces(cur, ref, mb_rows, mb_cols, p):
    s = MACROBLOCK_SIZE
    h, w = cur.shape
    n = 2 * p + 1
    surf = np.full((mb_rows.shape[0], n, n), _SENTINEL, dtype=np.int32)
    for b in range(mb_rows.shape[0]):
        y = mb_rows[b] * s
        x = mb_cols[b] * s
        dy_lo = -p if y >= p else -y
        dy_hi = p if y + s + p <= h else h - s - y
        dx_lo = -p if x >= p else -x
        dx_hi = p if x + s + p <= w else w - s - x
        for dy in range(dy_lo, dy_hi + 1):
            for dx in range(dx_lo, dx_hi + 1):
                acc = 0
                for i in range(s):
                    yy = y + i
                    ry = yy + dy
                    for j in range(s):
                        d = np.int64(cur[yy, x + j]) - np.int64(ref[ry, x + dx + j])
                        acc += d if d >= 0 else -d
                surf[b, dy + p, dx + p] = acc
    return surf


def k_evaluate_candidates(cur, ref, block_ys, block_xs, dys, dxs):
    s = MACROBLOCK_SIZE
    n, k = dys.shape
    h, w = ref.shape
    out = np.empty((n, k), dtype=np.int64)
    for i in range(n):
        y = block_ys[i]
        x = block_xs[i]
        for j in range(k):
            y0 = y + dys[i, j]
            x0 = x + dxs[i, j]
            if y0 < 0 or y0 + s > h or x0 < 0 or x0 + s > w:
                out[i, j] = -1
                continue
            acc = np.int64(0)
            for a in range(s):
                for b in range(s):
                    d = np.int64(cur[y + a, x + b]) - np.int64(ref[y0 + a, x0 + b])
                    acc += d if d >= 0 else -d
            out[i, j] = acc
    return out


def k_refine_half_pel(cur, half, mb_rows, mb_cols, anchor_dx, anchor_dy, anchor_sads, p, h, w, offs):
    s = MACROBLOCK_SIZE
    n = mb_rows.shape[0]
    best_hx = np.empty(n, dtype=np.int64)
    best_hy = np.empty(n, dtype=np.int64)
    best_sad = np.empty(n, dtype=np.int64)
    evaluated = np.empty(n, dtype=np.int64)
    for b in range(n):
        y = mb_rows[b] * s
        x = mb_cols[b] * s
        dy_min = -p if y >= p else -y
        dy_max = p if p <= h - s - y else h - s - y
        dx_min = -p if x >= p else -x
        dx_max = p if p <= w - s - x else w - s - x
        ahx = 2 * anchor_dx[b]
        ahy = 2 * anchor_dy[b]
        bsad = anchor_sads[b]
        bhx = ahx
        bhy = ahy
        count = 0
        for t in range(8):
            chx = ahx + offs[t, 0]
            chy = ahy + offs[t, 1]
            if chx < 2 * dx_min or chx > 2 * dx_max or chy < 2 * dy_min or chy > 2 * dy_max:
                continue
            count += 1
            gy = 2 * y + chy
            gx = 2 * x + chx
            acc = np.int64(0)
            for i in range(s):
                for j in range(s):
                    d = np.int64(cur[y + i, x + j]) - np.int64(half[gy + 2 * i, gx + 2 * j])
                    acc += d if d >= 0 else -d
            # Strict improvement in neighbour order — ties keep the
            # earlier winner, matching the vectorized update.
            if acc < bsad:
                bsad = acc
                bhx = chx
                bhy = chy
        best_hx[b] = bhx
        best_hy[b] = bhy
        best_sad[b] = bsad
        evaluated[b] = count
    return best_hx, best_hy, best_sad, evaluated


def k_intra_mode_costs(y):
    s = MACROBLOCK_SIZE
    rows = y.shape[0] // s
    cols = y.shape[1] // s
    costs = np.full((3, rows, cols), _INTRA_UNAVAILABLE, dtype=np.int64)
    for r in range(rows):
        for c in range(cols):
            dc = np.int64(0)
            for i in range(s):
                for j in range(s):
                    d = np.int64(y[r * s + i, c * s + j]) - np.int64(128)
                    dc += d if d >= 0 else -d
            costs[0, r, c] = dc
            if r > 0:
                acc = np.int64(0)
                for i in range(s):
                    for j in range(s):
                        d = np.int64(y[r * s + i, c * s + j]) - np.int64(y[r * s - 1, c * s + j])
                        acc += d if d >= 0 else -d
                costs[1, r, c] = acc
            if c > 0:
                acc = np.int64(0)
                for i in range(s):
                    for j in range(s):
                        d = np.int64(y[r * s + i, c * s + j]) - np.int64(y[r * s + i, c * s - 1])
                        acc += d if d >= 0 else -d
                costs[2, r, c] = acc
    return costs


def k_mc_gather(half, base_hy, base_hx, s):
    rows, cols = base_hy.shape
    out = np.empty((rows * s, cols * s), dtype=np.uint8)
    for r in range(rows):
        for c in range(cols):
            gy = base_hy[r, c]
            gx = base_hx[r, c]
            for i in range(s):
                for j in range(s):
                    out[r * s + i, c * s + j] = half[gy + 2 * i, gx + 2 * j]
    return out


def k_dequant(flat, qp):
    out = np.empty(flat.shape[0], dtype=np.float64)
    even = qp % 2 == 0
    for i in range(flat.shape[0]):
        lv = flat[i]
        if lv == 0:
            out[i] = 0.0
        elif lv > 0:
            m = qp * (2 * lv + 1)
            out[i] = float(m - 1) if even else float(m)
        else:
            m = qp * (-2 * lv + 1)
            out[i] = float(-(m - 1)) if even else float(-m)
    return out


# -- jit management --------------------------------------------------------

#: Every kernel rebound by :func:`_ensure_jitted`.  Inter-kernel calls
#: resolve through module globals, so after rebinding, jitted kernels
#: call jitted kernels.
_KERNEL_NAMES = (
    "k_peek49",
    "k_read_bits",
    "k_read_vlc",
    "k_read_ue",
    "k_scan_block",
    "k_parse_inter_body",
    "k_parse_intra_body",
    "k_parse_intra_pred_body",
    "k_sad_surfaces",
    "k_evaluate_candidates",
    "k_refine_half_pel",
    "k_intra_mode_costs",
    "k_mc_gather",
    "k_dequant",
)

_jitted = False


def _ensure_jitted() -> None:
    """Swap every kernel global for its ``njit(cache=True)`` dispatcher.

    Idempotent; raises ``ImportError`` when numba is absent (the
    registry gates that case with a clearer error)."""
    global _jitted
    if _jitted:
        return
    import numba

    g = globals()
    for name in _KERNEL_NAMES:
        g[name] = numba.njit(cache=True)(g[name])
    _jitted = True


# -- ABI wrappers ----------------------------------------------------------
#
# Thin Python shims: prepare dtypes and contiguous buffers for the
# compiled kernels.  The ME shims (surfaces, candidates, half-pel) take
# the uint8 planes their callers already validated (estimate(),
# frame_sad_surfaces, ReferencePlane.half_plane); the intra and MC
# shims fall back to the numpy cores on other input so the backend
# never changes behaviour, only speed.  They look kernels up in
# globals() at call time so the jit rebinding takes effect everywhere.


def _u8(arr):
    return arr.dtype == np.uint8 and arr.ndim == 2


def _sad_surfaces(cur, ref, mb_rows, mb_cols, p):
    rows, cols = (np.ascontiguousarray(a, dtype=np.int64) for a in (mb_rows, mb_cols))
    return k_sad_surfaces(np.ascontiguousarray(cur), np.ascontiguousarray(ref), rows, cols, p)


def _evaluate_candidates(cur, ref, block_ys, block_xs, dys, dxs):
    by = np.ascontiguousarray(block_ys, dtype=np.int64)
    bx = np.ascontiguousarray(block_xs, dtype=np.int64)
    dy = np.ascontiguousarray(dys, dtype=np.int64)
    dx = np.ascontiguousarray(dxs, dtype=np.int64)
    return k_evaluate_candidates(
        np.ascontiguousarray(cur), np.ascontiguousarray(ref), by, bx, dy, dx
    )


def _refine_half_pel(
    current, half, mb_rows, mb_cols, anchor_dx, anchor_dy, anchor_sads, p, h, w, offs
):
    return k_refine_half_pel(
        np.ascontiguousarray(current),
        np.ascontiguousarray(half),
        np.ascontiguousarray(mb_rows, dtype=np.int64),
        np.ascontiguousarray(mb_cols, dtype=np.int64),
        np.ascontiguousarray(anchor_dx, dtype=np.int64),
        np.ascontiguousarray(anchor_dy, dtype=np.int64),
        np.ascontiguousarray(anchor_sads, dtype=np.int64),
        p,
        h,
        w,
        np.ascontiguousarray(offs, dtype=np.int64),
    )


def _intra_mode_costs(y):
    if not _u8(y):
        from repro.me.engine.kernels import intra_mode_costs_numpy

        return intra_mode_costs_numpy(y)
    return k_intra_mode_costs(np.ascontiguousarray(y))


def _mc_gather(half, base_hy, base_hx, block_size):
    if not _u8(half):
        from repro.me.engine.reconstruction import mc_gather_numpy

        return mc_gather_numpy(half, base_hy, base_hx, block_size)
    return k_mc_gather(
        np.ascontiguousarray(half),
        np.ascontiguousarray(base_hy, dtype=np.int64),
        np.ascontiguousarray(base_hx, dtype=np.int64),
        block_size,
    )


def _dequant(levels, qp):
    lv = np.asarray(levels, dtype=np.int64)
    return k_dequant(np.ascontiguousarray(lv.ravel()), qp).reshape(lv.shape)


def _check_vlc_args(data, out_flat=None):
    if data.dtype != np.uint8 or data.ndim != 1:
        return False
    if out_flat is not None and (
        not isinstance(out_flat, np.ndarray)
        or out_flat.dtype != np.int64
        or not out_flat.flags.c_contiguous
    ):
        return False
    return True


def _scan_block_levels(data, pos, nbits, out_flat, skip_first):
    if not _check_vlc_args(data, out_flat):
        return -1
    new_pos, status = k_scan_block(
        data, pos, nbits, PACKED_TCOEF, TCOEF_FIRST_BITS, ZIGZAG, out_flat, skip_first
    )
    return -1 if status else int(new_pos)


def _parse_inter_body(data, pos, nbits, extended, num_refs, rows, cols):
    if not _check_vlc_args(data):
        return None
    new_pos, status, levels, hx, hy, ref_idx = k_parse_inter_body(
        data, pos, nbits, rows, cols, 1 if extended else 0, num_refs,
        PACKED_MCBPC, MCBPC_FIRST_BITS, PACKED_CBPY, CBPY_FIRST_BITS,
        PACKED_TCOEF, TCOEF_FIRST_BITS, ZIGZAG,
    )
    if status:
        return None
    return int(new_pos), levels, hx, hy, ref_idx


def _parse_intra_body(data, pos, nbits, rows, cols):
    if not _check_vlc_args(data):
        return None
    new_pos, status, levels, dc = k_parse_intra_body(
        data, pos, nbits, rows, cols,
        PACKED_MCBPC, MCBPC_FIRST_BITS, PACKED_CBPY, CBPY_FIRST_BITS,
        PACKED_TCOEF, TCOEF_FIRST_BITS, ZIGZAG,
    )
    if status:
        return None
    return int(new_pos), levels, dc


def _parse_intra_pred_body(data, pos, nbits, rows, cols):
    if not _check_vlc_args(data):
        return None
    # GOP-syntax intra mode field width (repro.codec.intra.INTRA_MODE_BITS).
    new_pos, status, levels, modes = k_parse_intra_pred_body(
        data, pos, nbits, rows, cols, 2,
        PACKED_MCBPC, MCBPC_FIRST_BITS, PACKED_CBPY, CBPY_FIRST_BITS,
        PACKED_TCOEF, TCOEF_FIRST_BITS, ZIGZAG,
    )
    if status:
        return None
    return int(new_pos), levels, modes


# -- backend construction --------------------------------------------------


def make_backend(jit: bool = True) -> KernelBackend:
    """Build the backend record.

    ``jit=True`` (the real backend) rebinds the kernels under
    ``numba.njit(cache=True)`` — requires numba.  ``jit=False`` returns
    the ``"numba-sim"`` backend running the identical kernel bodies as
    plain Python: orders of magnitude slower, but it lets the bit-
    identity suites cover every compiled code path on machines without
    numba.  Sim backends never cross a spawn boundary (workers only
    accept registry names).
    """
    if jit:
        _ensure_jitted()
    return KernelBackend(
        name="numba" if jit else "numba-sim",
        sad_surfaces=_sad_surfaces,
        evaluate_candidates=_evaluate_candidates,
        refine_half_pel=_refine_half_pel,
        intra_mode_costs=_intra_mode_costs,
        mc_gather=_mc_gather,
        dequant=_dequant,
        dequant_intra_dc=dequantize_intra_dc_numpy,
        idct=inverse_dct,
        scan_block_levels=_scan_block_levels,
        parse_inter_body=_parse_inter_body,
        parse_intra_body=_parse_intra_body,
        parse_intra_pred_body=_parse_intra_pred_body,
    )


_cached: KernelBackend | None = None


def get_numba_backend() -> KernelBackend:
    """The jitted backend, built once per process."""
    global _cached
    if _cached is None:
        _cached = make_backend(jit=True)
    return _cached
