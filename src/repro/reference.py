"""Per-block, per-bit oracles for motion estimation, symbol parsing
and reconstruction.

Production runs one path per stage: batched ME frame drivers, the LUT
(or compiled) parse, whole-frame reconstruction.  This module keeps the
seed way of doing each, sharing none of that machinery, so agreement
with it pins every batched path:

* :func:`estimate_motion` — raster-order
  :meth:`~repro.me.estimator.MotionEstimator.search_block` calls on
  :class:`~repro.me.candidates.CandidateEvaluator` (one
  :func:`~repro.me.metrics.sad` per candidate), no frame driver;
* :class:`ScalarBitReader`, :func:`decode_symbol` (the per-bit VLC tree
  walk), :func:`read_events`, the three picture-body walks and
  :func:`parse_bitstream_symbols` (v2 framing from the shared
  :meth:`FrameIndex.walk` and :func:`check_frame_length`);
* :func:`write_picture_body` — the three body walks' writing twin, one
  symbol at a time through :func:`~repro.codec.macroblock.write_events`,
  :func:`~repro.codec.mv_coding.predict_mv`,
  :func:`~repro.codec.mv_coding.write_mvd` and
  :meth:`~repro.codec.vlc.VLCTable.encode`, against which the encoder's
  whole-picture packer (:mod:`repro.codec.entropy`) is checked;
* :func:`decode_bitstream` — one macroblock at a time, predicting from
  the raw reference planes (:func:`~repro.me.subpel.predict_block`,
  :func:`~repro.codec.macroblock.predict_chroma_block`) or, in GOP
  I-frames, :func:`~repro.codec.intra.intra_predict`.

Tests and benchmarks import it; nothing in the codec or the
estimators does.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.codec.dct import inverse_dct
from repro.codec.decoder import (
    FrameIndex,
    ParsedPicture,
    PictureHeader,
    check_body_bits,
    check_frame_length,
    detect_version,
    read_picture_header,
    v1_picture,
)
from repro.codec.encoder import MAX_REF_FRAMES, PICTURE_HEADER_BITS
from repro.codec.intra import INTRA_MODE_BITS, intra_predict
from repro.codec.macroblock import join_luma_blocks, predict_chroma_block, write_events
from repro.codec.mv_coding import predict_mv, write_mvd
from repro.codec.quantizer import dequantize, dequantize_intra_dc
from repro.codec.vlc import VLCTable, read_ue_golomb_bitwise
from repro.codec.vlc_tables import CBPY_TABLE, ESCAPE, MCBPC_TABLE, TCOEF_TABLE
from repro.codec.zigzag import CoefficientEvent, block_to_events, events_to_block
from repro.me.engine.reference_plane import ReferencePlane
from repro.me.estimator import BlockContext, MotionEstimator
from repro.me.stats import SearchStats
from repro.me.subpel import predict_block
from repro.me.types import BlockResult, MotionField, MotionVector
from repro.video.frame import Frame

# -- motion estimation ----------------------------------------------------


def estimate_motion(
    est: MotionEstimator,
    current: np.ndarray,
    reference: np.ndarray,
    prev_field: MotionField | None = None,
    qp: int = 16,
) -> tuple[MotionField, SearchStats, list[BlockResult]]:
    """Raster-order :meth:`search_block` over every macroblock: the
    field, the stats the frame driver must report, and each block's
    result in raster order."""
    s = est.block_size
    rows, cols = current.shape[0] // s, current.shape[1] // s
    plane = ReferencePlane(reference)
    field = MotionField(rows, cols)
    stats = SearchStats()
    blocks = []
    for r in range(rows):
        for c in range(cols):
            result = est.search_block(
                BlockContext(current, reference, r, c, s, field, prev_field, qp, plane)
            )
            field.set(r, c, result.mv)
            stats.record_block(
                result.positions,
                used_full_search=result.used_full_search,
                decision=getattr(result, "decision", None),
            )
            blocks.append(result)
    return field, stats, blocks


# -- bits and symbols -----------------------------------------------------


class ScalarBitReader:
    """The seed one-bit-at-a-time reader: ``read_bit``/``read_bits``
    and the cursor queries the picture layer needs, nothing fused."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0  # bit position

    @property
    def bits_consumed(self) -> int:
        return self._pos

    @property
    def bits_remaining(self) -> int:
        return 8 * len(self._data) - self._pos

    def read_bit(self) -> int:
        if self._pos >= 8 * len(self._data):
            raise EOFError("bitstream exhausted")
        byte = self._data[self._pos >> 3]
        bit = (byte >> (7 - (self._pos & 7))) & 1
        self._pos += 1
        return bit

    def read_bits(self, count: int) -> int:
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        value = 0
        for _ in range(count):
            value = (value << 1) | self.read_bit()
        return value

    def align(self) -> int:
        """Skip to the next byte boundary; returns bits skipped."""
        padding = (-self._pos) & 7
        if padding:
            self.read_bits(padding)
        return padding


@functools.cache
def _code_book(table: VLCTable) -> dict:
    return {code: sym for sym, code in table.items()}


def decode_symbol(table: VLCTable, reader):
    """One symbol by the seed per-bit tree walk: extend the code a bit
    at a time until it names a symbol."""
    book = _code_book(table)
    value = 0
    for length in range(1, table.max_length + 1):
        value = (value << 1) | reader.read_bit()
        sym = book.get((value, length))
        if sym is not None:
            return sym
    raise ValueError("invalid prefix: no VLC symbol matches")


def read_se_golomb(reader) -> int:
    """Signed exp-Golomb over the bit-at-a-time ue(v) loop."""
    mapped = read_ue_golomb_bitwise(reader)
    return (mapped + 1) >> 1 if mapped & 1 else -(mapped >> 1)


def read_events(reader) -> list[CoefficientEvent]:
    """Parse a coded block's events until (and including) the
    LAST-flagged one."""
    events: list[CoefficientEvent] = []
    while True:
        symbol = decode_symbol(TCOEF_TABLE, reader)
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


# -- picture parse --------------------------------------------------------


def _read_coded_flags(reader) -> list[bool]:
    """MCBPC + CBPY → the six per-block coded flags (Y0..Y3, Cb, Cr)."""
    mcbpc = decode_symbol(MCBPC_TABLE, reader)
    cbpy = decode_symbol(CBPY_TABLE, reader)
    return [bool(cbpy & (1 << k)) for k in range(4)] + [bool(mcbpc & 2), bool(mcbpc & 1)]


def _parse_intra_body(reader, header: PictureHeader) -> ParsedPicture:
    rows, cols = header.mb_rows, header.mb_cols
    levels = np.zeros((rows * cols * 6, 8, 8), dtype=np.int64)
    dc_levels = np.empty(rows * cols * 6, dtype=np.int64)
    k = 0
    for _ in range(rows * cols):
        for coded in _read_coded_flags(reader):
            dc_levels[k] = reader.read_bits(8)
            if coded:
                levels[k] = events_to_block(read_events(reader), skip_first=1)
            k += 1
    return ParsedPicture(header=header, levels=levels, dc_levels=dc_levels)


def _parse_intra_pred_body(reader, header: PictureHeader) -> ParsedPicture:
    """GOP-syntax I-frame: per-MB mode bits, then inter-style events."""
    rows, cols = header.mb_rows, header.mb_cols
    levels = np.zeros((rows, cols, 6, 8, 8), dtype=np.int64)
    modes = np.empty((rows, cols), dtype=np.int64)
    for r in range(rows):
        for c in range(cols):
            mode = reader.read_bits(INTRA_MODE_BITS)
            if mode > 2:
                raise ValueError(f"illegal intra prediction mode {mode}")
            modes[r, c] = mode
            for k, coded in enumerate(_read_coded_flags(reader)):
                if coded:
                    levels[r, c, k] = events_to_block(read_events(reader))
    return ParsedPicture(header=header, levels=levels, modes=modes)


def _parse_inter_body(reader, header: PictureHeader) -> ParsedPicture:
    """Extended pictures carry a per-MB reference index between the
    CBPY and the MVD."""
    rows, cols = header.mb_rows, header.mb_cols
    multi = header.extended
    coded_field = MotionField(rows, cols)
    levels = np.zeros((rows, cols, 6, 8, 8), dtype=np.int64)
    ref_idx = np.zeros((rows, cols), dtype=np.int64) if multi else None
    for r in range(rows):
        for c in range(cols):
            if reader.read_bit():  # COD = 1: skipped
                coded_field.set(r, c, MotionVector.zero())
                continue
            coded_flags = _read_coded_flags(reader)
            if multi:
                ref = read_ue_golomb_bitwise(reader)
                if ref >= header.num_refs:
                    raise ValueError(
                        f"reference index {ref} out of range "
                        f"(picture codes {header.num_refs} active references)"
                    )
                ref_idx[r, c] = ref
            predictor = predict_mv(coded_field, r, c)
            dhx = read_se_golomb(reader)
            dhy = read_se_golomb(reader)
            coded_field.set(r, c, MotionVector(predictor.hx + dhx, predictor.hy + dhy))
            for k, coded in enumerate(coded_flags):
                if coded:
                    levels[r, c, k] = events_to_block(read_events(reader))
    hx, hy = coded_field.to_arrays()
    return ParsedPicture(header=header, levels=levels, hx=hx, hy=hy, ref_idx=ref_idx)


def parse_picture(reader) -> ParsedPicture:
    """One picture (header + macroblock layer) at the cursor."""
    header = read_picture_header(reader)
    check_body_bits(reader, header)
    if header.frame_type == "P":
        return _parse_inter_body(reader, header)
    if header.extended:
        return _parse_intra_pred_body(reader, header)
    return _parse_intra_body(reader, header)


def _parse_payload(payload: bytes) -> ParsedPicture:
    reader = ScalarBitReader(payload)
    try:
        parsed = parse_picture(reader)
    except EOFError as exc:
        raise ValueError(
            f"picture runs past its declared {len(payload)}-byte payload: the frame "
            f"length field is too small or the payload is cut short"
        ) from exc
    check_frame_length(reader, len(payload))
    return parsed


def parse_bitstream_symbols(bitstream: bytes) -> list[ParsedPicture]:
    """Every picture of a version-1 or -2 stream, parsed per bit.  A
    version-2 framing error is raised after every picture before it
    has parsed."""
    if detect_version(bitstream) == 2:
        index = FrameIndex.walk(bitstream)
        parsed = [_parse_payload(index.payload(bitstream, i)) for i in range(len(index))]
        if index.error is not None:
            raise index.error
        return parsed
    reader = ScalarBitReader(bitstream)
    parsed = []
    while reader.bits_remaining >= PICTURE_HEADER_BITS:
        with v1_picture(reader, len(parsed)):
            parsed.append(parse_picture(reader))
    return parsed


# -- picture write --------------------------------------------------------


def _block_events(levels, skip_first: int) -> tuple[list, int, int]:
    """The six blocks' event lists and the ``(CBPY, MCBPC)`` they imply."""
    events = [block_to_events(block, skip_first=skip_first) for block in levels]
    cbpy = sum(1 << k for k in range(4) if events[k])
    mcbpc = (2 if events[4] else 0) | (1 if events[5] else 0)
    return events, cbpy, mcbpc


def _write_blocks(writer, events, dc=None) -> int:
    """Each block's DC level (seed I-frames) and events; returns the
    TCOEF bits."""
    bits = 0
    for k, block_events in enumerate(events):
        if dc is not None:
            writer.write_bits(int(dc[k]), 8)
        if block_events:
            bits += write_events(writer, block_events)
    return bits


def write_picture_body(writer, parsed: ParsedPicture) -> tuple[int, int, int]:
    """Re-emit a parsed picture's macroblock layer one symbol at a time,
    as the seed encoder wrote it; returns the body's ``(skipped,
    mv_bits, coefficient_bits)`` ledger.  A P macroblock predicting
    from reference 0 with a zero vector and no coded block is skipped."""
    header = parsed.header
    rows, cols = header.mb_rows, header.mb_cols
    levels = parsed.levels.reshape(rows, cols, 6, 8, 8)
    skip_first = 0 if parsed.dc_levels is None else 1
    skipped = mv_bits = coefficient_bits = 0
    coded_field = MotionField(rows, cols)
    for r in range(rows):
        for c in range(cols):
            m = r * cols + c
            events, cbpy, mcbpc = _block_events(levels[r, c], skip_first)
            if header.frame_type == "P":
                ref = 0 if parsed.ref_idx is None else int(parsed.ref_idx[r, c])
                mv = MotionVector(int(parsed.hx[r, c]), int(parsed.hy[r, c]))
                if ref == 0 and mv.is_zero and cbpy == 0 and mcbpc == 0:
                    writer.write_bit(1)  # COD: skipped
                    coded_field.set(r, c, mv)
                    skipped += 1
                    continue
                writer.write_bit(0)
            elif header.extended:
                writer.write_bits(int(parsed.modes[r, c]), INTRA_MODE_BITS)
            writer.write_code(MCBPC_TABLE.encode(mcbpc))
            writer.write_code(CBPY_TABLE.encode(cbpy))
            if header.frame_type == "P":
                if header.extended:
                    writer.write_ue(ref)
                mv_bits += write_mvd(writer, mv, predict_mv(coded_field, r, c))
                coded_field.set(r, c, mv)
            dc = None if parsed.dc_levels is None else parsed.dc_levels[6 * m : 6 * m + 6]
            coefficient_bits += _write_blocks(writer, events, dc)
    return skipped, mv_bits, coefficient_bits


# -- reconstruction -------------------------------------------------------


def decode_bitstream(bitstream: bytes) -> list[Frame]:
    """Decode every picture of a version-1 or -2 stream, one
    macroblock at a time.  A version-1 picture parses and reconstructs
    inside one :func:`v1_picture` scope, as in the production decoder,
    so a reconstruction error names its picture too."""
    frames: list[Frame] = []
    references: list[Frame] = []

    def fold(picture: ParsedPicture) -> None:
        nonlocal references
        frame = _reconstruct(picture, references, len(frames))
        if picture.header.frame_type == "I":
            references = [frame]
        else:
            references = [frame, *references][:MAX_REF_FRAMES]
        frames.append(frame)

    if detect_version(bitstream) == 2:
        for picture in parse_bitstream_symbols(bitstream):
            fold(picture)
        return frames
    reader = ScalarBitReader(bitstream)
    while reader.bits_remaining >= PICTURE_HEADER_BITS:
        with v1_picture(reader, len(frames)):
            fold(parse_picture(reader))
    return frames


def _reconstruct(parsed: ParsedPicture, references: list[Frame], index: int) -> Frame:
    header = parsed.header
    g = header.geometry
    rows, cols = header.mb_rows, header.mb_cols
    if header.frame_type == "P":
        if not references:
            raise ValueError("P-frame without a decoded reference")
        if references[0].geometry != g:
            raise ValueError(f"geometry change mid-stream: {references[0].geometry} → {g}")
    y = np.empty((g.height, g.width), dtype=np.uint8)
    cb = np.empty((g.chroma_height, g.chroma_width), dtype=np.uint8)
    cr = np.empty((g.chroma_height, g.chroma_width), dtype=np.uint8)
    levels = parsed.levels.reshape(rows, cols, 6, 8, 8)
    for r in range(rows):
        for c in range(cols):
            y0, x0, cy0, cx0 = 16 * r, 16 * c, 8 * r, 8 * c
            coefficients = dequantize(levels[r, c], header.qp)
            if header.frame_type == "P":
                k = 0 if parsed.ref_idx is None else int(parsed.ref_idx[r, c])
                if k >= len(references):
                    raise ValueError(
                        f"picture selects reference {k} but only {len(references)} "
                        f"frame(s) are decoded since the last I-frame"
                    )
                ref = references[k]
                mv = MotionVector(int(parsed.hx[r, c]), int(parsed.hy[r, c]))
                pred = (
                    predict_block(ref.y, y0, x0, mv, 16, 16).astype(np.float64),
                    predict_chroma_block(ref.cb, cy0, cx0, mv, header.p).astype(np.float64),
                    predict_chroma_block(ref.cr, cy0, cx0, mv, header.p).astype(np.float64),
                )
            elif header.extended:
                mode = int(parsed.modes[r, c])
                pred = (
                    intra_predict(y, r, c, 16, mode),
                    intra_predict(cb, r, c, 8, mode),
                    intra_predict(cr, r, c, 8, mode),
                )
            else:
                dc = parsed.dc_levels[6 * (r * cols + c) : 6 * (r * cols + c) + 6]
                coefficients[:, 0, 0] = dequantize_intra_dc(dc)
                pred = (0.0, 0.0, 0.0)
            residual = inverse_dct(coefficients)
            y[y0 : y0 + 16, x0 : x0 + 16] = np.clip(
                np.rint(join_luma_blocks(residual[:4]) + pred[0]), 0, 255
            )
            cb[cy0 : cy0 + 8, cx0 : cx0 + 8] = np.clip(np.rint(residual[4] + pred[1]), 0, 255)
            cr[cy0 : cy0 + 8, cx0 : cx0 + 8] = np.clip(np.rint(residual[5] + pred[2]), 0, 255)
    return Frame(y, cb, cr, index=index)
