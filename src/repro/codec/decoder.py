"""Decoder for the encoder's bitstream.

Exists for verification *and* as the serving-side half of the codec:
the integration tests assert that decoding the emitted bitstream
reproduces the encoder's reconstruction *exactly* (bit-exact closed
loop), which pins down every VLC table, quantizer rounding rule and
motion-compensation path on both sides.

The decoder is split along the codec's two cost axes:

* **symbol parse** — :func:`parse_picture` walks one picture's bits
  into a :class:`ParsedPicture` (quantized levels, DC levels, motion
  arrays).  On the word-level :class:`BitReader` every VLC symbol is
  one LUT hit and every exp-Golomb code one peek, or the active kernel
  backend's compiled body parser reads the whole picture.  The per-bit
  walk it is checked against lives in :mod:`repro.reference`;
* **reconstruction** — :func:`reconstruct_picture` turns a parsed
  picture into pixels with the batched engine kernels (one IDCT over
  every block, whole-frame luma/chroma motion compensation through the
  :class:`~repro.me.engine.ReferencePlane` caches).  This is the only
  reconstruction path; the independent per-block oracle it is checked
  against lives in :mod:`repro.reference`.

Version-2 bitstreams (``Encoder(bitstream_version=2)``) delimit
pictures with byte-aligned start codes and length fields, which one
walker reads for every v2 entry point: :class:`~repro.streaming.scanner.ScanState`
(fed the whole buffer by :meth:`FrameIndex.walk`).  Each payload is
parsed by :func:`parse_payload` — here, or **concurrently** in worker
processes (``jobs=N``) — and folded into the reference list by
:func:`reconstruct_and_fold`.  Errors follow stream order (frame *k*'s
framing, parse, reconstruction, then frame *k+1*'s framing): every entry
point raises the first error in that order, with the same type and
message, or returns the same frames, bit-identical to
:func:`repro.reference.decode_bitstream` (``tests/test_decode_contract.py``).
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from repro.codec.bitstream import BitReader
from repro.kernels import get_backend
from repro.codec.encoder import (
    FRAME_START_CODE,
    MAX_REF_FRAMES,
    PICTURE_HEADER_BITS,
    START_CODE,
    START_CODE_BITS,
    START_CODE_EXT,
)
from repro.codec.intra import INTRA_MODE_BITS, intra_predict
from repro.codec.macroblock import read_block_levels, reconstruct_macroblock
from repro.codec.quantizer import dequantize, dequantize_intra_dc
from repro.codec.vlc import read_ue_golomb_bitwise
from repro.codec.vlc_tables import CBPY_TABLE, MCBPC_TABLE
from repro.me.engine import (
    ChromaReferencePlane,
    ReferencePlane,
    add_residual_clip,
    composite_predictions,
    frame_mc_luma,
    tile_blocks,
    tile_luma_blocks,
)
from repro.obs import metrics, trace
from repro.video.frame import Frame, FrameGeometry

#: Byte prefix shared by all version-2 frame start codes.
_V2_PREFIX = FRAME_START_CODE.to_bytes(4, "big")[:3]

_MET_FRAMES_IN = metrics.counter("decode.frames")
_MET_PARSES = metrics.counter("decode.pictures_parsed")


@dataclass(frozen=True)
class PictureHeader:
    frame_type: str  # "I" or "P"
    qp: int
    p: int
    mb_rows: int
    mb_cols: int
    #: Opened by the extended start code: predictive-intra I-frames,
    #: reference-list P-frames (the GOP syntax).
    extended: bool = False
    #: Active reference count this P-frame's per-MB indices address
    #: (always 1 for seed-syntax pictures and for I-frames).
    num_refs: int = 1

    @property
    def geometry(self) -> FrameGeometry:
        return FrameGeometry(16 * self.mb_cols, 16 * self.mb_rows)


def detect_version(bitstream: bytes) -> int:
    """1 or 2 from the stream's opening bytes.

    A version-1 stream opens with the 16-bit picture start code
    (0x7E7E); a version-2 stream opens with the byte-aligned 32-bit
    frame start code, whose ``00 00 01`` prefix a version-1 stream can
    never begin with.
    """
    return 2 if bitstream[:3] == _V2_PREFIX else 1


def read_picture_header(reader) -> PictureHeader:
    """Read and validate one picture header at the reader's cursor."""
    marker = reader.read_bits(START_CODE_BITS)
    if marker not in (START_CODE, START_CODE_EXT):
        raise ValueError(f"bad start code {marker:#x}")
    extended = marker == START_CODE_EXT
    frame_type = "P" if reader.read_bit() else "I"
    qp = reader.read_bits(5)
    p = reader.read_bits(5)
    mb_rows = reader.read_bits(8)
    mb_cols = reader.read_bits(8)
    if not 1 <= qp <= 31:
        raise ValueError(f"decoded Qp {qp} out of range")
    num_refs = reader.read_bits(3) + 1 if extended and frame_type == "P" else 1
    return PictureHeader(frame_type, qp, p, mb_rows, mb_cols, extended, num_refs)


# -- symbol parse ---------------------------------------------------------


@dataclass
class ParsedPicture:
    """One picture's fully parsed symbols, reconstruction-ready.

    Seed-syntax intra pictures carry ``dc_levels`` (``(rows*cols*6,)``)
    and flat ``levels`` (``(rows*cols*6, 8, 8)``); GOP-syntax intra
    pictures carry inter-shaped ``levels`` plus the per-MB prediction
    ``modes``.  Inter pictures carry ``levels`` shaped
    ``(rows, cols, 6, 8, 8)`` plus the decoded motion field as half-pel
    component arrays ``hx``/``hy`` (and, for extended pictures, the
    per-MB ``ref_idx`` into the reference list).  Plain header + NumPy
    arrays, so a picture parsed in a worker process crosses the pickle
    boundary cheaply.
    """

    header: PictureHeader
    levels: np.ndarray
    dc_levels: np.ndarray | None = None
    hx: np.ndarray | None = None
    hy: np.ndarray | None = None
    modes: np.ndarray | None = None
    ref_idx: np.ndarray | None = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParsedPicture):
            return NotImplemented

        def same(a, b):
            if a is None or b is None:
                return (a is None) == (b is None)
            return np.array_equal(a, b)

        return (
            self.header == other.header
            and same(self.levels, other.levels)
            and same(self.dc_levels, other.dc_levels)
            and same(self.hx, other.hx)
            and same(self.hy, other.hy)
            and same(self.modes, other.modes)
            and same(self.ref_idx, other.ref_idx)
        )


# LUTs bound once for the bodies below.
_CBPY_LUT, _CBPY_BITS = CBPY_TABLE.lut, CBPY_TABLE.lut_first_bits
_MCBPC_LUT, _MCBPC_BITS = MCBPC_TABLE.lut, MCBPC_TABLE.lut_first_bits


def _parse_intra_body(reader: BitReader, header: PictureHeader) -> ParsedPicture:
    """Seed-syntax intra parse: LUT symbol hits, levels written straight
    into the batched arrays."""
    rows, cols = header.mb_rows, header.mb_cols
    levels = np.zeros((rows * cols * 6, 8, 8), dtype=np.int64)
    flat = levels.reshape(rows * cols * 6, 64)
    dc_levels = np.empty(rows * cols * 6, dtype=np.int64)
    read_vlc = reader.read_vlc
    read_bits = reader.read_bits
    k = 0
    for _ in range(rows * cols):
        mcbpc = read_vlc(_MCBPC_LUT, _MCBPC_BITS)
        cbpy = read_vlc(_CBPY_LUT, _CBPY_BITS)
        for coded in (cbpy & 1, cbpy & 2, cbpy & 4, cbpy & 8, mcbpc & 2, mcbpc & 1):
            dc_levels[k] = read_bits(8)
            if coded:
                read_block_levels(reader, flat[k], skip_first=1)
            k += 1
    return ParsedPicture(header=header, levels=levels, dc_levels=dc_levels)


def _parse_intra_pred_body(reader: BitReader, header: PictureHeader) -> ParsedPicture:
    """GOP-syntax intra parse: per-MB mode bits, then inter-style
    residual levels, written straight into the batched arrays."""
    rows, cols = header.mb_rows, header.mb_cols
    levels = np.zeros((rows, cols, 6, 8, 8), dtype=np.int64)
    flat = levels.reshape(rows, cols, 6, 64)
    modes = np.empty((rows, cols), dtype=np.int64)
    read_vlc = reader.read_vlc
    read_bits = reader.read_bits
    for r in range(rows):
        for c in range(cols):
            mode = read_bits(INTRA_MODE_BITS)
            if mode > 2:
                raise ValueError(f"illegal intra prediction mode {mode}")
            modes[r, c] = mode
            mcbpc = read_vlc(_MCBPC_LUT, _MCBPC_BITS)
            cbpy = read_vlc(_CBPY_LUT, _CBPY_BITS)
            mb_flat = flat[r, c]
            if cbpy & 1:
                read_block_levels(reader, mb_flat[0])
            if cbpy & 2:
                read_block_levels(reader, mb_flat[1])
            if cbpy & 4:
                read_block_levels(reader, mb_flat[2])
            if cbpy & 8:
                read_block_levels(reader, mb_flat[3])
            if mcbpc & 2:
                read_block_levels(reader, mb_flat[4])
            if mcbpc & 1:
                read_block_levels(reader, mb_flat[5])
    return ParsedPicture(header=header, levels=levels, modes=modes)


def _parse_inter_body(reader: BitReader, header: PictureHeader) -> ParsedPicture:
    """Inter parse, with the motion field held as plain int rows (the
    H.263 median prediction inlined) instead of per-vector objects.
    Extended pictures carry a per-MB reference index between the CBPY
    and the MVD."""
    rows, cols = header.mb_rows, header.mb_cols
    multi = header.extended
    levels = np.zeros((rows, cols, 6, 8, 8), dtype=np.int64)
    flat = levels.reshape(rows, cols, 6, 64)
    hx = [[0] * cols for _ in range(rows)]
    hy = [[0] * cols for _ in range(rows)]
    ref_idx = np.zeros((rows, cols), dtype=np.int64) if multi else None
    read_vlc = reader.read_vlc
    read_bit = reader.read_bit
    read_ue = reader.read_ue
    for r in range(rows):
        row_hx, row_hy = hx[r], hy[r]
        for c in range(cols):
            if read_bit():  # COD = 1: skipped, zero vector, no residual
                continue
            mcbpc = read_vlc(_MCBPC_LUT, _MCBPC_BITS)
            cbpy = read_vlc(_CBPY_LUT, _CBPY_BITS)
            if multi:
                ref = read_ue()
                if ref < 0:
                    ref = read_ue_golomb_bitwise(reader)
                if ref >= header.num_refs:
                    raise ValueError(
                        f"reference index {ref} out of range "
                        f"(picture codes {header.num_refs} active references)"
                    )
                ref_idx[r, c] = ref
            # Median MVD predictor (see repro.codec.mv_coding): on the
            # top row the predictor is the left vector (zero at the
            # corner); elsewhere left/above/above-right with zero for
            # out-of-picture candidates.
            if r == 0:
                if c:
                    px, py = row_hx[c - 1], row_hy[c - 1]
                else:
                    px = py = 0
            else:
                lx, ly = (row_hx[c - 1], row_hy[c - 1]) if c else (0, 0)
                up_hx, up_hy = hx[r - 1], hy[r - 1]
                ax, ay = up_hx[c], up_hy[c]
                arx, ary = (up_hx[c + 1], up_hy[c + 1]) if c + 1 < cols else (0, 0)
                px = sorted((lx, ax, arx))[1]
                py = sorted((ly, ay, ary))[1]
            mapped = read_ue()
            if mapped < 0:
                mapped = read_ue_golomb_bitwise(reader)
            row_hx[c] = px + ((mapped + 1) >> 1 if mapped & 1 else -(mapped >> 1))
            mapped = read_ue()
            if mapped < 0:
                mapped = read_ue_golomb_bitwise(reader)
            row_hy[c] = py + ((mapped + 1) >> 1 if mapped & 1 else -(mapped >> 1))
            mb_flat = flat[r, c]
            if cbpy & 1:
                read_block_levels(reader, mb_flat[0])
            if cbpy & 2:
                read_block_levels(reader, mb_flat[1])
            if cbpy & 4:
                read_block_levels(reader, mb_flat[2])
            if cbpy & 8:
                read_block_levels(reader, mb_flat[3])
            if mcbpc & 2:
                read_block_levels(reader, mb_flat[4])
            if mcbpc & 1:
                read_block_levels(reader, mb_flat[5])
    return ParsedPicture(
        header=header,
        levels=levels,
        hx=np.array(hx, dtype=np.int64),
        hy=np.array(hy, dtype=np.int64),
        ref_idx=ref_idx,
    )


def _parse_body_compiled(reader: BitReader, header: PictureHeader) -> "ParsedPicture | None":
    """Try the active backend's compiled picture-body parser.

    Runs from a cursor snapshot, so ``None`` (no compiled parser, or the
    kernel hit anything off the happy path — bad prefix, truncation,
    illegal value) leaves the reader untouched and the caller replays
    the identical bits through the Python body, which raises the exact
    errors.  On success the reader advances to the kernel's end
    position; the decoded symbols are bit-identical to the Python walk.
    """
    backend = get_backend()
    rows, cols = header.mb_rows, header.mb_cols
    if header.frame_type == "P":
        entry, args = backend.parse_inter_body, (header.extended, header.num_refs, rows, cols)
    elif header.extended:
        entry, args = backend.parse_intra_pred_body, (rows, cols)
    else:
        entry, args = backend.parse_intra_body, (rows, cols)
    if entry is None:
        return None
    data, bit_pos = reader.cursor()
    result = entry(np.frombuffer(data, dtype=np.uint8), bit_pos, 8 * len(data), *args)
    if result is None:
        return None
    reader.advance_to(result[0])
    if header.frame_type == "P":
        _, levels, hx, hy, ref_idx = result
        return ParsedPicture(
            header, levels.reshape(rows, cols, 6, 8, 8), hx=hx, hy=hy,
            ref_idx=ref_idx if header.extended else None,
        )
    if header.extended:
        _, levels, modes = result
        return ParsedPicture(header, levels.reshape(rows, cols, 6, 8, 8), modes=modes)
    _, levels, dc_levels = result
    return ParsedPicture(header, levels.reshape(rows * cols * 6, 8, 8), dc_levels=dc_levels)


def check_body_bits(reader, header: PictureHeader) -> None:
    """Reject a header declaring more macroblocks than bits follow it.
    Every picture syntax codes at least one bit per macroblock (COD,
    MCBPC or the intra mode), so such a picture cannot parse; checking
    first keeps a few hostile bytes from sizing the level arrays."""
    mbs = header.mb_rows * header.mb_cols
    if mbs > reader.bits_remaining:
        raise ValueError(
            f"picture header ending at bit {reader.bits_consumed} declares {mbs} "
            f"macroblocks but only {reader.bits_remaining} bits follow"
        )


def parse_picture_body(reader: BitReader, header: PictureHeader) -> ParsedPicture:
    """Parse the macroblock layer of a picture whose header is already
    consumed.  When the active kernel backend ships compiled body
    parsers (:mod:`repro.kernels`) they run first, falling back to the
    LUT bodies here on any deviation."""
    check_body_bits(reader, header)
    parsed = _parse_body_compiled(reader, header)
    if parsed is not None:
        return parsed
    if header.frame_type == "P":
        return _parse_inter_body(reader, header)
    if header.extended:
        return _parse_intra_pred_body(reader, header)
    return _parse_intra_body(reader, header)


def parse_picture(reader) -> ParsedPicture:
    """Parse one picture (header + macroblock layer) at the cursor.

    Pure symbol work — no pixels are touched, which is what makes this
    half of the decoder safe to run per-frame in parallel workers.
    """
    _MET_PARSES.inc()
    with trace.span("decode.parse"):
        return parse_picture_body(reader, read_picture_header(reader))


def parse_payload(payload: bytes) -> ParsedPicture:
    """Parse one version-2 payload (a :class:`FrameIndex` range) and
    validate its length field — the one per-payload parse of every v2
    decode mode.  A picture that runs past the payload or ends short of
    it (:func:`check_frame_length`) raises :class:`ValueError`, with byte
    offsets counted from the start of the payload."""
    reader = BitReader(payload)
    try:
        parsed = parse_picture(reader)
    except EOFError as exc:
        raise ValueError(
            f"picture runs past its declared {len(payload)}-byte payload: the frame "
            f"length field is too small or the payload is cut short"
        ) from exc
    check_frame_length(reader, len(payload))
    return parsed


@contextmanager
def v1_picture(reader, index: int):
    """Scope one version-1 picture's decode, so every error in it names
    the picture and its starting bit — a v1 stream has no framing to
    locate damage by.  A picture cut short meets the end of the stream;
    that :class:`EOFError` leaves as one :class:`ValueError` (the v1
    twin of :func:`parse_payload`'s overrun error).  Any other
    :class:`ValueError` — a bad start code, an illegal symbol, a vector
    leaving the reference — is re-raised with the prefix
    ``picture k starting at bit b: ``.  :class:`Decoder`,
    :func:`parse_bitstream_symbols` and both :mod:`repro.reference`
    entry points scope each v1 picture with it (the decoders over
    reconstruction too), so a parse error reads the same from all
    four."""
    start = reader.bits_consumed
    total = start + reader.bits_remaining
    try:
        yield
    except EOFError as exc:
        raise ValueError(
            f"picture {index} starting at bit {start} runs past the end of the "
            f"{total}-bit stream: the stream is cut short or corrupt"
        ) from exc
    except ValueError as exc:
        raise ValueError(f"picture {index} starting at bit {start}: {exc}") from exc


def parse_bitstream_symbols(bitstream: bytes) -> list[ParsedPicture]:
    """Parse every picture in a (version-1 or -2) stream sequentially.
    A version-2 framing error is raised after every picture before it
    has parsed.  :func:`repro.reference.parse_bitstream_symbols` is the
    per-bit oracle for the same symbols.
    """
    if detect_version(bitstream) == 2:
        index = FrameIndex.walk(bitstream)
        parsed = [parse_payload(index.payload(bitstream, i)) for i in range(len(index))]
        if index.error is not None:
            raise index.error
        return parsed
    reader = BitReader(bitstream)
    parsed = []
    while reader.bits_remaining >= PICTURE_HEADER_BITS:
        with v1_picture(reader, len(parsed)):
            parsed.append(parse_picture(reader))
    return parsed


def check_frame_length(reader, expected_end: int) -> None:
    """Validate a version-2 length field against the parse that just
    finished: after consuming the frame's padding, the cursor must sit
    exactly where the field said the payload ends.  :class:`FrameIndex`
    *trusts* length fields to slice the stream, so this check is what
    makes a corrupt field fail instead of decoding."""
    reader.align()
    actual_end = reader.bits_consumed // 8
    if actual_end != expected_end:
        raise ValueError(
            f"frame length field says the payload ends at byte {expected_end}, "
            f"but the parse ended at byte {actual_end}"
        )


# -- start-code frame index ----------------------------------------------


@dataclass(frozen=True)
class FrameIndex:
    """Byte ranges of every picture in a version-2 stream.

    ``ranges[i]`` is the half-open byte span of picture ``i``'s payload
    (picture header through padding, excluding the start code and
    length field) — exactly what :func:`parse_payload` consumes.  Built
    by :meth:`walk` without parsing any symbols, so indexing a stream
    is O(frames), not O(bits).  ``error`` is the framing error that
    stopped the walk after ``ranges`` (``None`` for a clean stream):
    decoders raise it once every picture before it has decoded, and
    :meth:`scan` at once.
    """

    ranges: tuple[tuple[int, int], ...]
    error: ValueError | None = None

    def __len__(self) -> int:
        return len(self.ranges)

    def payload(self, bitstream: bytes, index: int) -> bytes:
        start, end = self.ranges[index]
        return bitstream[start:end]

    def frame_types(self, bitstream: bytes) -> tuple[str, ...]:
        """``"I"``/``"P"`` per indexed picture, read from the header
        bytes alone: the 16-bit picture start code is followed by the
        frame-type bit, so byte 2's MSB of each payload decides without
        parsing any symbols."""
        types = []
        for start, _end in self.ranges:
            marker = (bitstream[start] << 8) | bitstream[start + 1]
            if marker not in (START_CODE, START_CODE_EXT):
                raise ValueError(f"bad start code {marker:#x}")
            types.append("P" if bitstream[start + 2] & 0x80 else "I")
        return tuple(types)

    def keyframes(self, bitstream: bytes) -> tuple[int, ...]:
        """Indices of the I-frames — the stream's random-access points."""
        return tuple(i for i, t in enumerate(self.frame_types(bitstream)) if t == "I")

    @classmethod
    def walk(cls, bitstream: bytes) -> "FrameIndex":
        """Index a whole in-memory stream, keeping a framing error in
        :attr:`error`.  Feeds the buffer in one chunk to the push
        decoder's :class:`repro.streaming.scanner.ScanState`, so every
        decode mode accepts and rejects the same framing with the same
        errors."""
        if detect_version(bitstream) != 2:
            raise ValueError(
                "FrameIndex requires a version-2 stream (byte-aligned start "
                "codes); version-1 streams are not splittable without parsing"
            )
        # Imported here: repro.streaming sits above the codec layer and
        # imports this module, so a top-level import would cycle.
        from repro.streaming.scanner import ScanState

        state = ScanState(keep_payloads=False)
        try:
            state.feed(bitstream)
            state.finish()
        except ValueError as exc:
            return cls(tuple(state.ranges), exc)
        return cls(tuple(state.ranges))

    @classmethod
    def scan(cls, bitstream: bytes) -> "FrameIndex":
        """:meth:`walk`, raising its framing error."""
        index = cls.walk(bitstream)
        if index.error is not None:
            raise index.error
        return index


# -- reconstruction -------------------------------------------------------


def _reconstruct_intra_pred(parsed: ParsedPicture, frame_index: int) -> Frame:
    """GOP-syntax I-frame: batched residual IDCT, then the serial
    spatial-prediction sweep (each macroblock predicts from already
    reconstructed neighbours, so the per-MB loop is inherent)."""
    header = parsed.header
    rows, cols = header.mb_rows, header.mb_cols
    g = header.geometry
    residual = get_backend().idct(dequantize(parsed.levels, header.qp))
    planes = (
        np.empty((g.height, g.width), dtype=np.uint8),
        np.empty((g.chroma_height, g.chroma_width), dtype=np.uint8),
        np.empty((g.chroma_height, g.chroma_width), dtype=np.uint8),
    )
    for r in range(rows):
        for c in range(cols):
            mode = int(parsed.modes[r, c])
            pred = [intra_predict(plane, r, c, size, mode) for plane, size in zip(planes, (16, 8, 8))]
            reconstruct_macroblock(planes, r, c, residual[r, c], pred)
    return Frame(*planes, index=frame_index)


def reconstruct_picture(
    parsed: ParsedPicture,
    reference: "Frame | list[Frame] | None",
    frame_index: int = 0,
) -> Frame:
    """Pixels from parsed symbols via the batched engine kernels.

    ``reference`` is the decoded reference list, most recent first (a
    bare :class:`Frame` is accepted as a one-element list for the seed
    single-reference syntax).  Skipped macroblocks fold into the
    batched path naturally: their vector is zero (the motion
    compensation degenerates to the reference slice) and their residual
    coefficients stay zero, so ``rint(0 + pred)`` reproduces the
    reference copy bit-for-bit.
    """
    with trace.span("decode.reconstruct"):
        return _reconstruct_picture(parsed, reference, frame_index)


def _reconstruct_picture(
    parsed: ParsedPicture,
    reference: "Frame | list[Frame] | None",
    frame_index: int = 0,
) -> Frame:
    header = parsed.header
    if reference is None:
        references: list[Frame] = []
    elif isinstance(reference, Frame):
        references = [reference]
    else:
        references = list(reference)
    if header.frame_type == "I":
        if header.extended:
            return _reconstruct_intra_pred(parsed, frame_index)
        rows, cols = header.mb_rows, header.mb_cols
        coefficients = dequantize(parsed.levels, header.qp)
        coefficients[:, 0, 0] = dequantize_intra_dc(parsed.dc_levels)
        coefficients = coefficients.reshape(rows, cols, 6, 8, 8)
        pixels = np.clip(np.rint(get_backend().idct(coefficients)), 0, 255).astype(np.uint8)
        y = tile_luma_blocks(pixels[:, :, :4])
        cb = tile_blocks(pixels[:, :, 4])
        cr = tile_blocks(pixels[:, :, 5])
        return Frame(y, cb, cr, index=frame_index)
    if not references:
        raise ValueError("P-frame without a decoded reference")
    if references[0].geometry != header.geometry:
        raise ValueError(
            f"geometry change mid-stream: {references[0].geometry} → {header.geometry}"
        )
    coefficients = dequantize(parsed.levels, header.qp)
    ref_idx = parsed.ref_idx
    if ref_idx is None:
        ref_idx = np.zeros((header.mb_rows, header.mb_cols), dtype=np.int64)
    needed = int(ref_idx.max())
    if needed >= len(references):
        raise ValueError(
            f"picture selects reference {needed} but only {len(references)} "
            f"frame(s) are decoded since the last I-frame"
        )

    def predict(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ref = references[k]
        pred_y = frame_mc_luma(ReferencePlane(ref.y), parsed.hx, parsed.hy)
        chroma = ChromaReferencePlane(ref.cb, ref.cr)
        return (pred_y, *chroma.mc_frame(parsed.hx, parsed.hy, header.p))

    pred_y, pred_cb, pred_cr = composite_predictions(ref_idx, predict)
    residual = get_backend().idct(coefficients)
    y = add_residual_clip(pred_y, tile_luma_blocks(residual[:, :, :4]))
    cb = add_residual_clip(pred_cb, tile_blocks(residual[:, :, 4]))
    cr = add_residual_clip(pred_cr, tile_blocks(residual[:, :, 5]))
    return Frame(y, cb, cr, index=frame_index)


def reconstruct_and_fold(
    parsed: ParsedPicture, references: list[Frame], frame_index: int
) -> tuple[Frame, list[Frame]]:
    """The decode loop's one reconstruction step: the frame, and the
    reference list (most recent first) the next picture predicts from —
    reset by an I-frame, pushed onto by a P-frame up to ``MAX_REF_FRAMES``."""
    frame = reconstruct_picture(parsed, references, frame_index)
    if parsed.header.frame_type == "I":
        return frame, [frame]
    return frame, [frame, *references][:MAX_REF_FRAMES]


class Decoder:
    """Stateful decoder: feed it one bitstream, pull frames until
    exhaustion.  Version-1 pictures are parsed along one sequential bit
    walk, version-2 ones from the :meth:`FrameIndex.walk` ranges by
    :func:`parse_payload` (:func:`detect_version` tells them apart), and
    each is reconstructed by :func:`reconstruct_and_fold`.

    Parameters
    ----------
    bitstream:
        The encoder's emitted bytes.
    start_frame:
        Random access (version 2 only): the picture to start at, an
        I-frame.  Frames ``start_frame..end`` decode bit-identically to a
        full decode's, with the same frame indices.
    """

    def __init__(self, bitstream: bytes, start_frame: int = 0) -> None:
        self._bitstream = bitstream
        #: Decoded reference list, most recent first; reset by I-frames.
        self._references: list[Frame] = []
        self._frame_index = start_frame
        #: Pictures parsed ahead by worker jobs (see :meth:`_parse_in_workers`).
        self._parsed: deque[ParsedPicture] = deque()
        self.version = detect_version(bitstream)
        if self.version == 1 and not start_frame:
            self._reader = BitReader(bitstream)
            return
        self._index = index = FrameIndex.walk(bitstream)  # raises for a v1 seek
        self._next = start_frame  # the next picture's position in the index
        if not start_frame:
            return
        if start_frame >= len(index) and index.error is not None:
            raise index.error  # the framing breaks before the picture
        if not 0 <= start_frame < len(index):
            raise ValueError(f"frame {start_frame} out of range (stream holds {len(index)} frames)")
        if index.payload(bitstream, start_frame)[2:3] >= b"\x80":  # byte 2's MSB is the P-flag
            raise ValueError(
                f"frame {start_frame} is a P-frame; random access needs an I-frame "
                f"(keyframes in this stream: {list(index.keyframes(bitstream))})"
            )

    @property
    def has_more(self) -> bool:
        """Whether another picture follows (version 1: a header's worth
        of bits remains), or — version 2 — the framing error that ends
        the walk, which the next :meth:`decode_frame` raises."""
        if self.version == 1:
            return self._reader.bits_remaining >= PICTURE_HEADER_BITS
        return self._next < len(self._index) or self._index.error is not None

    def _parse_in_workers(self, jobs: int, count: int | None) -> None:
        """Parse the next ``count`` payloads (all when ``None``) as
        :class:`~repro.parallel.jobs.ParseFrameJob`\\ s on ``jobs``
        workers, for :meth:`decode_frame` to reconstruct in order.  A
        failed job surfaces as the pool's ``RuntimeError`` for whichever
        job failed first; decoding the same pictures serially raises the
        first error in stream order instead, and the pool's error is
        re-raised only if the serial decode does not fail."""
        from repro.parallel import ParseFrameJob, run_jobs

        ranges = self._index.ranges[self._next :]
        if count is not None:
            ranges = ranges[:count]
        try:
            parsed = run_jobs(
                [ParseFrameJob(payload=self._bitstream[s:e]) for s, e in ranges], workers=jobs
            )
        except RuntimeError:
            for _ in ranges:
                self.decode_frame()
            raise
        self._parsed.extend(parsed)

    def _parse_next(self) -> ParsedPicture:
        if self.version == 1:
            with trace.span("decode.parse") as parse_span:
                header = read_picture_header(self._reader)
                if header.frame_type == "P" and not self._references:
                    raise ValueError("P-frame without a decoded reference")
                parse_span.set(type=header.frame_type)
                return parse_picture_body(self._reader, header)
        if self._next == len(self._index):
            raise self._index.error or EOFError("no picture left in the stream")
        self._next += 1
        if self._parsed:
            return self._parsed.popleft()
        return parse_payload(self._index.payload(self._bitstream, self._next - 1))

    def decode_frame(self) -> Frame:
        # A v1 picture's parse and reconstruction share one error scope.
        scope = v1_picture(self._reader, self._frame_index) if self.version == 1 else nullcontext()
        with trace.span("decode.frame", frame=self._frame_index) as frame_span, scope:
            parsed = self._parse_next()
            frame, self._references = reconstruct_and_fold(
                parsed, self._references, self._frame_index
            )
            frame_span.set(type=parsed.header.frame_type)
            self._frame_index += 1
        _MET_FRAMES_IN.inc()
        return frame


def decode_bitstream(
    bitstream: bytes,
    frames: int | None = None,
    jobs: int = 1,
    start_frame: int = 0,
) -> list[Frame]:
    """Decode ``frames`` pictures (or all that fit) from a bitstream.

    ``jobs > 1`` on a version-2 stream parses the frames' symbols
    concurrently in worker processes, then reconstructs sequentially
    (the closed prediction loop is inherently serial).  Version-1
    streams ignore ``jobs``.  Every mode returns bit-identical frames or
    raises the same first error in stream order, judging only the first
    ``frames`` pictures.

    ``start_frame`` seeks: decoding starts at that picture (version 2
    only; must be an I-frame), with frame indices matching the full
    stream's.

    >>> from repro.video.synthesis.sequences import make_sequence
    >>> from repro.codec.encoder import encode_sequence
    >>> seq = make_sequence("miss_america", frames=2)
    >>> result = encode_sequence(seq, qp=20, keep_reconstruction=True)
    >>> decoded = decode_bitstream(result.bitstream)
    >>> all(d == r for d, r in zip(decoded, result.reconstruction))
    True
    """
    decoder = Decoder(bitstream, start_frame=start_frame)
    if jobs > 1 and decoder.version == 2:
        decoder._parse_in_workers(jobs, frames)
    out = []
    while decoder.has_more and (frames is None or len(out) < frames):
        out.append(decoder.decode_frame())
    return out
