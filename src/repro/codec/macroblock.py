"""Macroblock-level coding helpers shared by encoder and decoder.

A macroblock is 16x16 luma + two 8x8 chroma blocks (4:2:0).  This
module owns the pieces both sides must agree on bit-for-bit:

* luma block splitting order (TL, TR, BL, BR — H.263's block order),
* the closed-loop reconstruction rule (prediction + residual, rounded
  and clipped — :func:`reconstruct_macroblock`),
* coded-block patterns (CBPY / MCBPC) from per-block coded flags,
* chroma motion-vector derivation from the luma vector,
* TCOEF event serialization (table codes + sign, or escape payload),
* quantize → events → dequantize round trips for inter and intra
  blocks.
"""

from __future__ import annotations

import numpy as np

from repro.codec.bitstream import BitReader, BitWriter
from repro.kernels import get_backend
from repro.codec.quantizer import (
    dequantize,
    dequantize_intra_dc,
    quantize_inter,
    quantize_intra_ac,
    quantize_intra_dc,
)
from repro.codec.vlc_tables import (
    ESCAPE,
    ESCAPE_PAYLOAD_BITS,
    TCOEF_TABLE,
    tcoef_symbol,
)
from repro.codec.zigzag import (
    ZIGZAG_INDEX,
    CoefficientEvent,
    block_to_events,
    events_to_block,
)
from repro.me.engine.reference_plane import ReferencePlane
from repro.me.search_window import clamped_window, half_pel_window
from repro.me.subpel import half_pel_block
from repro.me.types import MotionVector

#: Luma 8x8 sub-block offsets within a macroblock, H.263 order.
LUMA_BLOCK_OFFSETS: tuple[tuple[int, int], ...] = ((0, 0), (0, 8), (8, 0), (8, 8))


def split_luma_blocks(mb: np.ndarray) -> np.ndarray:
    """(16,16) macroblock → (4, 8, 8) stack in H.263 block order."""
    if mb.shape != (16, 16):
        raise ValueError(f"macroblock must be 16x16, got {mb.shape}")
    return np.stack([mb[r : r + 8, c : c + 8] for r, c in LUMA_BLOCK_OFFSETS])


def join_luma_blocks(blocks: np.ndarray) -> np.ndarray:
    """Inverse of :func:`split_luma_blocks`."""
    if blocks.shape != (4, 8, 8):
        raise ValueError(f"need (4, 8, 8) stack, got {blocks.shape}")
    mb = np.empty((16, 16), dtype=blocks.dtype)
    for block, (r, c) in zip(blocks, LUMA_BLOCK_OFFSETS):
        mb[r : r + 8, c : c + 8] = block
    return mb


def macroblock_views(planes, mb_row: int, mb_col: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Views of macroblock ``(mb_row, mb_col)`` — 16x16 Y, 8x8 Cb, 8x8
    Cr — in a ``(y, cb, cr)`` plane triple."""
    y, cb, cr = planes
    y0, x0, cy0, cx0 = 16 * mb_row, 16 * mb_col, 8 * mb_row, 8 * mb_col
    return y[y0 : y0 + 16, x0 : x0 + 16], cb[cy0 : cy0 + 8, cx0 : cx0 + 8], cr[cy0 : cy0 + 8, cx0 : cx0 + 8]


def reconstruct_macroblock(
    planes, mb_row: int, mb_col: int, residual: np.ndarray, pred=(0.0, 0.0, 0.0)
) -> None:
    """Write one macroblock of a ``(y, cb, cr)`` reconstruction: the six
    inverse-transformed residual blocks (Y0..Y3, Cb, Cr) plus the
    (Y, Cb, Cr) prediction, rounded and clipped to 8 bits.

    The encoder's and the decoder's spatially predicted (GOP-syntax)
    I-frames reconstruct through here, one macroblock at a time because
    each predicts from its reconstructed neighbours; whole-frame
    reconstruction uses the same rounding rule in
    :func:`repro.me.engine.add_residual_clip`.
    """
    rec_y, rec_cb, rec_cr = macroblock_views(planes, mb_row, mb_col)
    rec_y[...] = np.clip(np.rint(join_luma_blocks(residual[:4]) + pred[0]), 0, 255)
    rec_cb[...] = np.clip(np.rint(residual[4] + pred[1]), 0, 255)
    rec_cr[...] = np.clip(np.rint(residual[5] + pred[2]), 0, 255)


def coded_block_patterns(coded: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-macroblock ``(CBPY, MCBPC)`` from a ``(..., 6)`` coded-block
    mask (Y0..Y3, Cb, Cr): luma block ``k`` sets CBPY bit ``k``, Cb and
    Cr set MCBPC bits 1 and 0."""
    c = np.asarray(coded, dtype=np.int64)
    cbpy = c[..., 0] | (c[..., 1] << 1) | (c[..., 2] << 2) | (c[..., 3] << 3)
    return cbpy, (c[..., 4] << 1) | c[..., 5]


def chroma_mv(mv: MotionVector) -> MotionVector:
    """Chroma vector in chroma half-pel units: half the luma vector,
    odd components rounded away from zero (so ±1 luma half-pel maps to
    ±1 chroma half-pel, as in H.263's division table)."""

    def halve(h: int) -> int:
        if h % 2 == 0:
            return h // 2
        return (h + 1) // 2 if h > 0 else (h - 1) // 2

    return MotionVector(halve(mv.hx), halve(mv.hy))


def predict_chroma_block(
    ref_plane: np.ndarray | ReferencePlane,
    block_y: int,
    block_x: int,
    luma_mv: MotionVector,
    p: int,
) -> np.ndarray:
    """Motion-compensated 8x8 chroma prediction.

    The derived chroma vector is clamped into the block's legal chroma
    window (the derivation's away-from-zero rounding can exceed the
    luma-implied support by one half-pel at the frame border).  Both
    encoder and decoder call this, so clamping stays in sync.

    ``ref_plane`` may be a raw chroma array (per-candidate
    interpolation, the seed path) or a wrapped
    :class:`~repro.me.engine.reference_plane.ReferencePlane` — e.g. one
    side of a :class:`~repro.me.engine.chroma_plane.ChromaReferencePlane`
    — which reads the same samples from its per-frame half-pel cache.
    """
    c_mv = chroma_mv(luma_mv)
    window = clamped_window(
        block_y, block_x, 8, 8, ref_plane.shape[0], ref_plane.shape[1], p
    )
    hwin = half_pel_window(window)
    hx = min(max(c_mv.hx, hwin.dx_min), hwin.dx_max)
    hy = min(max(c_mv.hy, hwin.dy_min), hwin.dy_max)
    if isinstance(ref_plane, ReferencePlane):
        return ref_plane.block(2 * block_y + hy, 2 * block_x + hx, 8, 8)
    return half_pel_block(ref_plane, 2 * block_y + hy, 2 * block_x + hx, 8, 8)


# -- TCOEF serialization -------------------------------------------------


def write_events(writer: BitWriter, events: list[CoefficientEvent]) -> int:
    """Emit a coded block's event list; returns bits written."""
    if not events:
        raise ValueError("a coded block must contain at least one event")
    before = writer.bit_count
    for event in events:
        symbol = tcoef_symbol(event)
        if symbol is ESCAPE:
            writer.write_code(TCOEF_TABLE.encode(ESCAPE))
            writer.write_bit(1 if event.last else 0)
            writer.write_bits(event.run, 6)
            writer.write_bits(event.level & 0xFF, 8)  # two's complement
        else:
            writer.write_code(TCOEF_TABLE.encode(symbol))
            writer.write_bit(1 if event.level < 0 else 0)
    return writer.bit_count - before


def read_events(reader: BitReader) -> list[CoefficientEvent]:
    """Parse events until (and including) the LAST-flagged one."""
    events: list[CoefficientEvent] = []
    while True:
        symbol = TCOEF_TABLE.decode(reader)
        if symbol is ESCAPE:
            last = bool(reader.read_bit())
            run = reader.read_bits(6)
            raw = reader.read_bits(8)
            level = raw - 256 if raw >= 128 else raw
            if level == 0:
                raise ValueError("escape-coded level of 0 is illegal")
        else:
            last_flag, run, magnitude = symbol
            sign = reader.read_bit()
            level = -magnitude if sign else magnitude
            last = bool(last_flag)
        events.append(CoefficientEvent(last=last, run=run, level=level))
        if last:
            return events


#: TCOEF LUT bound once for the hot block reader below.
_TCOEF_LUT = TCOEF_TABLE.lut
_TCOEF_LUT_BITS = TCOEF_TABLE.lut_first_bits

#: Zig-zag scan positions as a plain list (numpy scalar indexing is
#: several times slower in a per-event loop).
_ZIGZAG_FLAT: list[int] = ZIGZAG_INDEX.tolist()


def read_block_levels(reader, out_flat, skip_first: int = 0) -> None:
    """Decode one coded block's events straight into ``out_flat``.

    The fast-path equivalent of
    ``events_to_block(read_events(reader), skip_first)`` for word-level
    readers: TCOEF symbols come off the LUT via ``reader.read_vlc`` and
    the levels land at their inverse-zig-zag positions in ``out_flat``
    (a zeroed length-64 raster-order view of the block), with no
    intermediate :class:`CoefficientEvent` objects.  Structure errors
    raise exactly like the event-list path.

    When the active kernel backend offers a compiled block scan it runs
    first, from a cursor snapshot; a negative return means "replay in
    Python" (which re-zeroes ``out_flat`` — the compiled scan may have
    partially written it — and raises this path's exact errors).
    """
    scan = get_backend().scan_block_levels
    if scan is not None and type(reader) is BitReader and isinstance(out_flat, np.ndarray):
        data, bit_pos = reader.cursor()
        new_pos = scan(
            np.frombuffer(data, dtype=np.uint8), bit_pos, 8 * len(data), out_flat, skip_first
        )
        if new_pos >= 0:
            reader.advance_to(new_pos)
            return
        out_flat[:] = 0
    read_vlc = reader.read_vlc
    read_bit = reader.read_bit
    zigzag = _ZIGZAG_FLAT
    pos = skip_first
    overflow = -1
    while True:
        symbol = read_vlc(_TCOEF_LUT, _TCOEF_LUT_BITS)
        if symbol.__class__ is tuple:
            last, run, level = symbol
            if read_bit():
                level = -level
        else:  # ESCAPE
            last = read_bit()
            run = reader.read_bits(6)
            raw = reader.read_bits(8)
            level = raw - 256 if raw >= 128 else raw
            if level == 0:
                raise ValueError("escape-coded level of 0 is illegal")
        pos += run
        if overflow < 0:
            if pos < 64:
                out_flat[zigzag[pos]] = level
            else:
                # Overflowing events are a ValueError, but only once the
                # whole event list has been consumed — the reference
                # path reads every event first (read_events) and
                # validates second (events_to_block), so a stream that
                # truncates mid-list must stay an EOFError on both.
                overflow = pos
        pos += 1
        if last:
            if overflow >= 0:
                raise ValueError(
                    f"events overflow the block at scan position {overflow}"
                )
            return


def events_bits(events: list[CoefficientEvent]) -> int:
    """Exact coded length without writing (used by rate probes)."""
    total = 0
    for event in events:
        symbol = tcoef_symbol(event)
        if symbol is ESCAPE:
            total += TCOEF_TABLE.code_length(ESCAPE) + ESCAPE_PAYLOAD_BITS
        else:
            total += TCOEF_TABLE.code_length(symbol) + 1
    return total


# -- inter / intra block round trips -------------------------------------


def code_inter_block(dct_coefficients: np.ndarray, qp: int) -> tuple[list[CoefficientEvent], np.ndarray]:
    """Quantize residual DCT coefficients; return (events, reconstructed
    coefficients).  Empty events == uncoded block (CBP bit 0)."""
    levels = quantize_inter(dct_coefficients, qp)
    events = block_to_events(levels)
    return events, dequantize(levels, qp)


def decode_inter_block(events: list[CoefficientEvent], qp: int) -> np.ndarray:
    """Events → reconstructed residual DCT coefficients."""
    levels = events_to_block(events) if events else np.zeros((8, 8), dtype=np.int64)
    return dequantize(levels, qp)


def code_intra_block(
    dct_coefficients: np.ndarray, qp: int
) -> tuple[int, list[CoefficientEvent], np.ndarray]:
    """Quantize an intra block.

    Returns ``(dc_level, ac_events, reconstructed_coefficients)``; the
    DC level is coded separately on 8 bits.
    """
    dc_level = int(quantize_intra_dc(dct_coefficients[0, 0]))
    ac_levels = quantize_intra_ac(dct_coefficients, qp)
    ac_levels[0, 0] = 0
    events = block_to_events(ac_levels, skip_first=1)
    recon = dequantize(ac_levels, qp)
    recon[0, 0] = float(dequantize_intra_dc(dc_level))
    return dc_level, events, recon


def decode_intra_block(dc_level: int, events: list[CoefficientEvent], qp: int) -> np.ndarray:
    levels = (
        events_to_block(events, skip_first=1)
        if events
        else np.zeros((8, 8), dtype=np.int64)
    )
    recon = dequantize(levels, qp)
    recon[0, 0] = float(dequantize_intra_dc(dc_level))
    return recon
