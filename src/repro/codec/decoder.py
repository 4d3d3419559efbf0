"""Decoder for the encoder's bitstream.

Exists for verification *and* as the serving-side half of the codec:
the integration tests assert that decoding the emitted bitstream
reproduces the encoder's reconstruction *exactly* (bit-exact closed
loop), which pins down every VLC table, quantizer rounding rule and
motion-compensation path on both sides.

The decoder is split along the codec's two cost axes:

* **symbol parse** — :func:`parse_picture` walks one picture's bits
  into a :class:`ParsedPicture` (quantized levels, DC levels, motion
  arrays).  On a word-level :class:`BitReader` every VLC symbol is one
  LUT hit (:meth:`~repro.codec.vlc.VLCTable.decode`) and every
  exp-Golomb code one peek; handed a
  :class:`~repro.codec.bitstream.ScalarBitReader` the identical walk
  runs through the seed per-bit reader, which is the equivalence
  baseline;
* **reconstruction** — :func:`reconstruct_picture` turns a parsed
  picture into pixels with the batched engine kernels (one IDCT over
  every block, whole-frame luma/chroma motion compensation through the
  :class:`~repro.me.engine.ReferencePlane` caches).  This is the only
  reconstruction path; the independent per-block oracle it is checked
  against lives in :mod:`repro.reference`.

Version-2 bitstreams (``Encoder(bitstream_version=2)``) delimit
pictures with byte-aligned start codes and length fields, so
:class:`FrameIndex` splits a stream into per-frame byte ranges without
parsing — which is what lets :func:`decode_bitstream` parse frames'
symbols **concurrently** (``jobs=N`` dispatches
:class:`~repro.parallel.jobs.ParseFrameJob` specs through
:func:`repro.parallel.run_jobs`) before the sequential batched
reconstruction pass.  Both versions and any job count produce
bit-identical frames, equal to :func:`repro.reference.decode_bitstream`;
``tests/test_reconstruction.py`` and ``tests/test_bitstream_v2.py`` pin
that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.codec.bitstream import BitReader
from repro.kernels import get_backend
from repro.codec.encoder import (
    FRAME_LENGTH_BITS,
    FRAME_START_CODE,
    FRAME_START_CODE_BITS,
    MAX_REF_FRAMES,
    PICTURE_HEADER_BITS,
    START_CODE,
    START_CODE_BITS,
    START_CODE_EXT,
)
from repro.codec.intra import INTRA_MODE_BITS, intra_predict
from repro.codec.macroblock import read_block_levels, read_events, reconstruct_macroblock
from repro.codec.mv_coding import predict_mv, read_mvd
from repro.codec.quantizer import dequantize, dequantize_intra_dc
from repro.codec.vlc import read_ue_golomb, read_ue_golomb_bitwise
from repro.codec.vlc_tables import CBPY_TABLE, MCBPC_TABLE
from repro.codec.zigzag import events_to_block
from repro.me.engine import (
    ChromaReferencePlane,
    ReferencePlane,
    add_residual_clip,
    composite_predictions,
    frame_mc_luma,
    tile_blocks,
    tile_luma_blocks,
)
from repro.me.types import MotionField, MotionVector
from repro.obs import metrics, trace
from repro.video.frame import Frame, FrameGeometry

#: Bits in a picture header (after any version-2 framing).
_HEADER_BITS = PICTURE_HEADER_BITS

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

    @property
    def intra_pred(self) -> bool:
        """Whether this is a spatially predicted (GOP-syntax) I-frame."""
        return self.extended and self.frame_type == "I"


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


def _read_coded_flags(reader) -> list[bool]:
    """MCBPC + CBPY → the six per-block coded flags (Y0..Y3, Cb, Cr)."""
    mcbpc = MCBPC_TABLE.decode(reader)
    cbpy = CBPY_TABLE.decode(reader)
    coded_flags = [bool(cbpy & (1 << k)) for k in range(4)]
    coded_flags += [bool(mcbpc & 2), bool(mcbpc & 1)]
    return coded_flags


def _parse_intra_body(reader, header: PictureHeader) -> ParsedPicture:
    """Reference intra parse: seed event-list walk, any reader."""
    rows, cols = header.mb_rows, header.mb_cols
    levels = np.zeros((rows * cols * 6, 8, 8), dtype=np.int64)
    dc_levels = np.empty(rows * cols * 6, dtype=np.int64)
    k = 0
    for _ in range(rows * cols):
        coded_flags = _read_coded_flags(reader)
        for coded in coded_flags:
            dc_levels[k] = reader.read_bits(8)
            if coded:
                levels[k] = events_to_block(read_events(reader), skip_first=1)
            k += 1
    return ParsedPicture(header=header, levels=levels, dc_levels=dc_levels)


def _read_ref_index(reader, header: PictureHeader) -> int:
    """One coded macroblock's exp-Golomb reference index, validated
    against the header's active-reference count."""
    ref = read_ue_golomb(reader)
    if ref >= header.num_refs:
        raise ValueError(
            f"reference index {ref} out of range "
            f"(picture codes {header.num_refs} active references)"
        )
    return ref


def _parse_intra_pred_body(reader, header: PictureHeader) -> ParsedPicture:
    """Reference parse of a GOP-syntax I-frame: per-MB mode bits, then
    inter-style residual events (seed event-list walk, any reader)."""
    rows, cols = header.mb_rows, header.mb_cols
    levels = np.zeros((rows, cols, 6, 8, 8), dtype=np.int64)
    modes = np.empty((rows, cols), dtype=np.int64)
    for r in range(rows):
        for c in range(cols):
            mode = reader.read_bits(INTRA_MODE_BITS)
            if mode > 2:
                raise ValueError(f"illegal intra prediction mode {mode}")
            modes[r, c] = mode
            coded_flags = _read_coded_flags(reader)
            for k, coded in enumerate(coded_flags):
                if coded:
                    levels[r, c, k] = events_to_block(read_events(reader))
    return ParsedPicture(header=header, levels=levels, modes=modes)


def _parse_inter_body(reader, header: PictureHeader) -> ParsedPicture:
    """Reference inter parse: seed event-list walk, any reader.
    Extended pictures additionally carry a per-MB reference index
    between the CBPY and the MVD."""
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
                ref_idx[r, c] = _read_ref_index(reader, header)
            predictor = predict_mv(coded_field, r, c)
            mv = read_mvd(reader, predictor)
            coded_field.set(r, c, mv)
            for k, coded in enumerate(coded_flags):
                if coded:
                    levels[r, c, k] = events_to_block(read_events(reader))
    hx, hy = coded_field.to_arrays()
    return ParsedPicture(header=header, levels=levels, hx=hx, hy=hy, ref_idx=ref_idx)


# LUTs bound once for the fast bodies below.
_CBPY_LUT, _CBPY_BITS = CBPY_TABLE.lut, CBPY_TABLE.lut_first_bits
_MCBPC_LUT, _MCBPC_BITS = MCBPC_TABLE.lut, MCBPC_TABLE.lut_first_bits


def _parse_intra_body_fast(reader: BitReader, header: PictureHeader) -> ParsedPicture:
    """Word-level intra parse: LUT symbol hits, levels written straight
    into the batched arrays.  Bit-identical to :func:`_parse_intra_body`."""
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


def _parse_intra_pred_body_fast(reader: BitReader, header: PictureHeader) -> ParsedPicture:
    """Word-level GOP-syntax intra parse: LUT symbol hits, levels
    written straight into the batched arrays.  Bit-identical to
    :func:`_parse_intra_pred_body`."""
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


def _parse_inter_body_fast(reader: BitReader, header: PictureHeader) -> ParsedPicture:
    """Word-level inter parse.  Bit-identical to :func:`_parse_inter_body`,
    with the motion field held as plain int rows (the H.263 median
    prediction inlined) instead of per-vector objects."""
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
    data, bit_pos = reader.cursor()
    buf = np.frombuffer(data, dtype=np.uint8)
    nbits = 8 * len(data)
    rows, cols = header.mb_rows, header.mb_cols
    if header.frame_type == "I":
        if header.extended:
            entry = backend.parse_intra_pred_body
            if entry is None:
                return None
            result = entry(buf, bit_pos, nbits, rows, cols)
            if result is None:
                return None
            new_pos, levels, modes = result
            reader.advance_to(new_pos)
            return ParsedPicture(
                header=header, levels=levels.reshape(rows, cols, 6, 8, 8), modes=modes
            )
        entry = backend.parse_intra_body
        if entry is None:
            return None
        result = entry(buf, bit_pos, nbits, rows, cols)
        if result is None:
            return None
        new_pos, levels, dc_levels = result
        reader.advance_to(new_pos)
        return ParsedPicture(
            header=header, levels=levels.reshape(rows * cols * 6, 8, 8), dc_levels=dc_levels
        )
    entry = backend.parse_inter_body
    if entry is None:
        return None
    result = entry(buf, bit_pos, nbits, header.extended, header.num_refs, rows, cols)
    if result is None:
        return None
    new_pos, levels, hx, hy, ref_idx = result
    reader.advance_to(new_pos)
    return ParsedPicture(
        header=header,
        levels=levels.reshape(rows, cols, 6, 8, 8),
        hx=hx,
        hy=hy,
        ref_idx=ref_idx if header.extended else None,
    )


def parse_picture_body(reader, header: PictureHeader) -> ParsedPicture:
    """Parse the macroblock layer of a picture whose header is already
    consumed.  Word-level readers take the LUT fast bodies; readers
    exposing only ``read_bit`` (``ScalarBitReader``) take the seed
    event-list walk — the two are bit-identical on every stream.  When
    the active kernel backend ships compiled body parsers
    (:mod:`repro.kernels`), plain :class:`BitReader` parses go through
    them first, falling back here on any deviation.
    """
    fast = hasattr(reader, "read_vlc")
    if fast and type(reader) is BitReader:
        parsed = _parse_body_compiled(reader, header)
        if parsed is not None:
            return parsed
    if header.frame_type == "I":
        if header.extended:
            return (
                _parse_intra_pred_body_fast(reader, header)
                if fast
                else _parse_intra_pred_body(reader, header)
            )
        return _parse_intra_body_fast(reader, header) if fast else _parse_intra_body(reader, header)
    return _parse_inter_body_fast(reader, header) if fast else _parse_inter_body(reader, header)


def parse_picture(reader) -> ParsedPicture:
    """Parse one picture (header + macroblock layer) at the cursor.

    Pure symbol work — no pixels are touched, which is what makes this
    half of the decoder safe to run per-frame in parallel workers.
    """
    _MET_PARSES.inc()
    with trace.span("decode.parse"):
        return parse_picture_body(reader, read_picture_header(reader))


def parse_bitstream_symbols(bitstream: bytes, reader_factory=BitReader) -> list[ParsedPicture]:
    """Parse every picture in a (version-1 or -2) stream sequentially.

    ``reader_factory`` selects the bit-reader implementation — the
    default word-level :class:`BitReader` drives the LUT decode path;
    passing :class:`~repro.codec.bitstream.ScalarBitReader` replays the
    seed per-bit walk over the same bytes, which is how the equivalence
    tests and ``BENCH_vlc.json`` compare the two.
    """
    version = detect_version(bitstream)
    reader = reader_factory(bitstream)
    framing_bits = FRAME_START_CODE_BITS + FRAME_LENGTH_BITS if version == 2 else 0
    parsed: list[ParsedPicture] = []
    while True:
        if version == 2:
            reader.align()
        if reader.bits_remaining < framing_bits + _HEADER_BITS:
            return parsed
        if version == 2:
            marker = reader.read_bits(FRAME_START_CODE_BITS)
            if marker != FRAME_START_CODE:
                raise ValueError(f"bad frame start code {marker:#x}")
            length = reader.read_bits(FRAME_LENGTH_BITS)
            expected_end = reader.bits_consumed // 8 + length
            parsed.append(parse_picture(reader))
            check_frame_length(reader, expected_end)
        else:
            parsed.append(parse_picture(reader))


def check_frame_length(reader, expected_end: int) -> None:
    """Validate a version-2 length field against the parse that just
    finished: after consuming the frame's padding, the cursor must sit
    exactly where the field said the payload ends.  This keeps the
    sequential decoder exactly as strict as the :class:`FrameIndex`
    path, which *trusts* length fields to slice the stream — a corrupt
    field must fail in every mode, never decode in one and raise in
    another."""
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
    length field) — exactly what :func:`parse_picture` consumes from
    offset zero of the slice.  Built by :meth:`scan`, which hops
    length fields without parsing any symbols, so indexing a stream is
    O(frames), not O(bits).  A trailing fragment too short to hold a
    minimal frame is ignored, mirroring :attr:`Decoder.has_more` — the
    indexed and sequential decoders accept exactly the same streams.
    """

    ranges: tuple[tuple[int, int], ...]

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
    def scan(cls, bitstream: bytes) -> "FrameIndex":
        """Scan a whole in-memory stream.

        Delegates to the incremental :class:`repro.streaming.scanner.ScanState`
        fed the buffer in one chunk, so the whole-buffer and streaming
        scanners accept and reject exactly the same streams with the
        same errors (byte offsets named for bad start codes, trailing
        garbage, and length fields pointing past end of stream).
        """
        if detect_version(bitstream) != 2:
            raise ValueError(
                "FrameIndex requires a version-2 stream (byte-aligned start "
                "codes); version-1 streams are not splittable without parsing"
            )
        # Imported here: repro.streaming sits above the codec layer and
        # imports this module, so a top-level import would cycle.
        from repro.streaming.scanner import ScanState

        state = ScanState(keep_payloads=False)
        state.feed(bitstream)
        state.finish()
        return cls(ranges=tuple(state.ranges))


def slice_from_keyframe(bitstream: bytes, frame: int) -> bytes:
    """The suffix of a version-2 stream starting at picture ``frame``'s
    framing, for random access: because an I-frame resets the reference
    list, decoding the returned bytes reproduces frames ``frame..end``
    bit-identically to a full decode.

    ``frame`` must index an I-frame — seeking to a P-frame cannot
    reconstruct (its references were discarded), so that raises with
    the stream's actual random-access points listed.
    """
    index = FrameIndex.scan(bitstream)
    if not 0 <= frame < len(index):
        raise ValueError(f"frame {frame} out of range (stream holds {len(index)} frames)")
    if index.frame_types(bitstream)[frame] != "I":
        keyframes = index.keyframes(bitstream)
        raise ValueError(
            f"frame {frame} is a P-frame; random access needs an I-frame "
            f"(keyframes in this stream: {list(keyframes)})"
        )
    start, _end = index.ranges[frame]
    # The payload range excludes the 4-byte start code + 4-byte length
    # field; back up over them so the slice is itself a valid stream.
    return bitstream[start - (FRAME_START_CODE_BITS + FRAME_LENGTH_BITS) // 8 :]


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


class Decoder:
    """Stateful decoder: feed it one bitstream, pull frames until
    exhaustion.  Handles both bitstream versions transparently (the
    opening bytes disambiguate — see :func:`detect_version`).  Each
    frame is parsed by :func:`parse_picture_body` and reconstructed by
    the batched :func:`reconstruct_picture`; the per-block oracle that
    checks it is :func:`repro.reference.decode_bitstream`.

    Parameters
    ----------
    bitstream:
        The encoder's emitted bytes.
    first_frame_index:
        Index stamped on the first decoded frame — pass the keyframe's
        position when decoding a :func:`slice_from_keyframe` suffix so
        frame indices line up with the full stream.
    """

    def __init__(self, bitstream: bytes, first_frame_index: int = 0) -> None:
        self._reader = BitReader(bitstream)
        #: Decoded reference list, most recent first; reset by I-frames.
        self._references: list[Frame] = []
        self._frame_index = first_frame_index
        self.version = detect_version(bitstream)

    @property
    def has_more(self) -> bool:
        """Whether another picture plausibly follows (at least a
        framing + header's worth of bits remains past alignment)."""
        remaining = self._reader.bits_remaining
        if self.version == 2:
            remaining -= (-self._reader.bits_consumed) & 7  # alignment padding
            return remaining >= FRAME_START_CODE_BITS + FRAME_LENGTH_BITS + _HEADER_BITS
        return remaining >= _HEADER_BITS

    def _read_framing(self) -> int:
        """Consume the version-2 alignment + start code + length field;
        returns the byte offset the length field says the payload ends
        at (validated after the frame parses — see
        :func:`check_frame_length`)."""
        self._reader.align()
        marker = self._reader.read_bits(FRAME_START_CODE_BITS)
        if marker != FRAME_START_CODE:
            raise ValueError(f"bad frame start code {marker:#x}")
        length = self._reader.read_bits(FRAME_LENGTH_BITS)
        return self._reader.bits_consumed // 8 + length

    def decode_frame(self) -> Frame:
        with trace.span("decode.frame", frame=self._frame_index) as frame_span:
            expected_end = self._read_framing() if self.version == 2 else None
            with trace.span("decode.parse") as parse_span:
                header = read_picture_header(self._reader)
                if header.frame_type == "P" and not self._references:
                    raise ValueError("P-frame without a decoded reference")
                parse_span.set(type=header.frame_type)
                parsed = parse_picture_body(self._reader, header)
            frame = reconstruct_picture(parsed, self._references, self._frame_index)
            if expected_end is not None:
                check_frame_length(self._reader, expected_end)
            if header.frame_type == "I":
                self._references = [frame]
            else:
                self._references = [frame, *self._references][:MAX_REF_FRAMES]
            frame_span.set(type=header.frame_type)
            self._frame_index += 1
        _MET_FRAMES_IN.inc()
        return frame


def decode_bitstream(
    bitstream: bytes,
    frames: int | None = None,
    jobs: int = 1,
    base_seed: int = 0,
    use_shm: bool = False,
    start_frame: int = 0,
) -> list[Frame]:
    """Decode ``frames`` pictures (or all that fit) from a bitstream.

    ``jobs > 1`` on a version-2 stream splits it with
    :class:`FrameIndex` and parses the frames' symbols concurrently
    (:class:`~repro.parallel.jobs.ParseFrameJob` through
    :func:`repro.parallel.run_jobs`), then reconstructs sequentially
    through the batched engine — the closed prediction loop makes
    reconstruction inherently serial, but by then the per-frame cost is
    a handful of vectorized kernels.  Version-1 streams (not splittable
    without parsing) ignore ``jobs`` and decode serially; results are
    bit-identical in every mode.  The per-block oracle these results are
    checked against is :func:`repro.reference.decode_bitstream`.

    ``use_shm=True`` moves the parse jobs' frame payloads and parsed
    symbols through shared memory instead of the worker pipe
    (``run_jobs(..., use_shm=True)``); it changes transport only, never
    bits, and is ignored when ``jobs`` stay serial.

    ``start_frame`` seeks: the stream is sliced at that picture with
    :func:`slice_from_keyframe` (version 2 only; must be an I-frame)
    and decoding starts there, with frame indices matching the full
    stream's.

    >>> from repro.video.synthesis.sequences import make_sequence
    >>> from repro.codec.encoder import encode_sequence
    >>> seq = make_sequence("miss_america", frames=2)
    >>> result = encode_sequence(seq, qp=20, keep_reconstruction=True)
    >>> decoded = decode_bitstream(result.bitstream)
    >>> all(d == r for d, r in zip(decoded, result.reconstruction))
    True
    """
    if start_frame:
        bitstream = slice_from_keyframe(bitstream, start_frame)
    if jobs > 1 and detect_version(bitstream) == 2:
        from repro.parallel import ParseFrameJob, run_jobs

        index = FrameIndex.scan(bitstream)
        ranges = index.ranges if frames is None else index.ranges[:frames]
        parsed = run_jobs(
            [ParseFrameJob(payload=bitstream[s:e]) for s, e in ranges],
            workers=jobs,
            base_seed=base_seed,
            use_shm=use_shm,
        )
        out: list[Frame] = []
        references: list[Frame] = []
        for i, picture in enumerate(parsed):
            with trace.span(
                "decode.frame", frame=start_frame + i, type=picture.header.frame_type
            ):
                frame = reconstruct_picture(picture, references, start_frame + i)
            _MET_FRAMES_IN.inc()
            if picture.header.frame_type == "I":
                references = [frame]
            else:
                references = [frame, *references][:MAX_REF_FRAMES]
            out.append(frame)
        return out
    decoder = Decoder(bitstream, first_frame_index=start_frame)
    out = []
    while decoder.has_more and (frames is None or len(out) < frames):
        out.append(decoder.decode_frame())
    return out
