"""Closed-loop H.263-style encoder.

The first frame is intra coded; every following frame is a P-frame:
motion estimation runs against the *reconstructed* previous frame (the
decoder's reference), prediction residuals go through DCT → H.263
quantizer → TCOEF VLC, and macroblocks with a zero vector and an empty
coded-block pattern collapse to a 1-bit COD skip flag.  A real
bitstream is emitted; :mod:`repro.codec.decoder` can reconstruct the
identical frames from it.

This is the rig behind Figures 5-6 and Table 1: the estimator is
pluggable, the per-frame :class:`repro.me.stats.SearchStats` feed the
complexity table, and PSNR/bits feed the RD curves.

**GOP structure** (``i_period`` / ``n_ref_frames``): passing
``i_period=N`` opens a new GOP every N frames with a spatially
predicted I-frame (:mod:`repro.codec.intra` modes, chosen per
macroblock), and ``n_ref_frames=K`` keeps the K most recent
reconstructions as a reference list — each coded P-macroblock selects
its reference with an exp-Golomb index.  The reference list resets at
every I-frame, so GOPs are fully independent: that is what lets
:func:`repro.parallel.gop.encode_sequence_parallel` encode GOPs in
separate processes and splice byte-identical version-2 streams.  GOP
frames carry the extended picture start code; the defaults
(``i_period=None, n_ref_frames=1``) emit the seed syntax, byte for
byte.

Seed-syntax I-frames and P-frames (one P-frame coder for every
reference-list depth) are coded a whole frame at a time: one
``(rows, cols, 6, 8, 8)`` block grid, one DCT → quantise → IDCT pass,
and a local decode through the decoder's own kernels.  Only the entropy
walk visits macroblocks, because MVD prediction reads the vectors
already coded.  GOP-syntax I-frames predict from reconstructed
neighbours, so they still code one macroblock at a time.  The
independent per-block decoder that checks these reconstructions bit
for bit is :mod:`repro.reference` (a test and benchmark oracle;
nothing in the codec imports it).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace as dataclass_replace

import numpy as np

from repro.analysis.psnr import psnr
from repro.codec.bitstream import BitWriter
from repro.codec.dct import forward_dct, inverse_dct
from repro.codec.intra import INTRA_MODE_BITS, choose_intra_modes, intra_predict
from repro.codec.macroblock import (
    coded_block_patterns,
    macroblock_views,
    reconstruct_macroblock,
    write_events,
)
from repro.codec.quantizer import (
    check_qp,
    dequantize,
    dequantize_intra_dc,
    quantize_inter,
    quantize_intra_ac,
    quantize_intra_dc,
)
from repro.codec.mv_coding import predict_mv, write_mvd
from repro.codec.vlc_tables import CBPY_TABLE, MCBPC_TABLE
from repro.codec.zigzag import blocks_to_events
from repro.me.engine import (
    ChromaReferencePlane,
    ReferencePlane,
    add_residual_clip,
    composite_predictions,
    frame_mc_luma,
    intra_mode_cost_surfaces,
    split_frame_blocks,
    tile_blocks,
    tile_luma_blocks,
)
from repro.me.estimator import MotionEstimator, create_estimator
from repro.me.stats import SearchStats
from repro.obs import metrics, trace
from repro.me.types import MotionField, MotionVector

# Per-block twins of the whole-frame quantisation and MC above.  The
# frame coders no longer call them; they stay bound here because
# perfbench's layer instrumentation wraps them by name on this module.
from repro.codec.macroblock import code_inter_block, code_intra_block  # noqa: F401
from repro.codec.macroblock import predict_chroma_block  # noqa: F401
from repro.me.subpel import predict_block  # noqa: F401
from repro.video.frame import Frame
from repro.video.sequence import Sequence

#: Picture start code value and width (stand-in for H.263's PSC).
START_CODE = 0x7E7E
START_CODE_BITS = 16

#: Extended picture start code: same width, selects the GOP syntax for
#: the picture it opens — predictive intra modes in I-frames, an
#: active-reference count (and per-MB reference indices) in P-frames.
#: Stateless per frame, so seed-syntax and GOP-syntax pictures mix
#: freely in one stream and the default encoder configuration never
#: emits it (byte-identity with the seed format is golden-pinned).
START_CODE_EXT = 0x7E7D

#: Format cap on the reference list length: the extended P-frame header
#: carries ``active_refs - 1`` in 3 bits.
MAX_REF_FRAMES = 8

#: Version-2 framing: each picture is preceded by a byte-aligned
#: 32-bit frame start code and a 32-bit payload length in bytes, so a
#: scanner (:class:`repro.codec.decoder.FrameIndex`) can split the
#: stream into per-frame byte ranges without parsing a single symbol.
#: The ``00 00 01`` prefix can never open a version-1 stream (those
#: begin with the 0x7E7E PSC), which is what makes version detection a
#: three-byte check.
FRAME_START_CODE = 0x000001B6
FRAME_START_CODE_BITS = 32
FRAME_LENGTH_BITS = 32

#: Bits in a picture header: start code, P-flag, Qp, p, mb_rows,
#: mb_cols.  The single definition every layer that sizes a minimal
#: picture shares (the decoder's ``has_more``, the whole-buffer and
#: incremental scanners) — they must agree on which trailing fragments
#: are too short to open a frame.
PICTURE_HEADER_BITS = START_CODE_BITS + 1 + 5 + 5 + 16

# Registry instruments (identity-stable across resets, so module-level
# caching is safe).  The bits-by-syntax-element split is the ledger the
# ROADMAP's rate-control item needs: header + mode + MV + coefficients
# sums to every non-framing bit the encoder emits.
_MET_FRAMES_OUT = metrics.counter("encode.frames")
_MET_BITS_OUT = metrics.counter("encode.bits")
_MET_BITS_PER_FRAME = metrics.histogram("encode.bits_per_frame")
_MET_BITS_HEADER = metrics.counter("encode.bits.headers")
_MET_BITS_MODE = metrics.counter("encode.bits.mode")
_MET_BITS_MV = metrics.counter("encode.bits.mv")
_MET_BITS_COEF = metrics.counter("encode.bits.coefficients")
_MET_SAD_EVALS = metrics.counter("me.sad_evaluations")


@dataclass(frozen=True)
class FrameRecord:
    """Per-frame encoding outcome."""

    index: int
    frame_type: str  # "I" or "P"
    bits: int
    psnr_y: float
    psnr_cb: float
    psnr_cr: float
    #: Search statistics (None for intra frames).
    stats: SearchStats | None
    skipped_mbs: int = 0
    mv_bits: int = 0
    coefficient_bits: int = 0


@dataclass
class EncodeResult:
    """Everything one sequence encode produced."""

    name: str
    qp: int
    estimator_name: str
    fps: float
    frames: list[FrameRecord]
    bitstream: bytes
    reconstruction: list[Frame] = dataclass_field(default_factory=list)
    bitstream_version: int = 1

    @property
    def total_bits(self) -> int:
        return sum(f.bits for f in self.frames)

    @property
    def mean_psnr_y(self) -> float:
        return float(np.mean([f.psnr_y for f in self.frames]))

    @property
    def mean_psnr_p_frames(self) -> float:
        """Luma PSNR averaged over P-frames only (the part motion
        estimation influences)."""
        p_frames = [f.psnr_y for f in self.frames if f.frame_type == "P"]
        if not p_frames:
            raise ValueError("no P-frames in this encode")
        return float(np.mean(p_frames))

    @property
    def rate_kbps(self) -> float:
        """Average rate in kbit/s at the sequence's frame rate — the
        horizontal axis of the paper's Figs. 5-6."""
        return self.total_bits / len(self.frames) * self.fps / 1000.0

    @property
    def keyframes(self) -> tuple[int, ...]:
        """Positions of the I-frames — the GOP openings a decoder can
        start from (see ``decode_bitstream(..., start_frame=...)``)."""
        return tuple(i for i, f in enumerate(self.frames) if f.frame_type == "I")

    @property
    def search_stats(self) -> SearchStats:
        """Merged motion-search statistics across all P-frames."""
        merged = SearchStats()
        for record in self.frames:
            if record.stats is not None:
                merged.merge(record.stats)
        return merged

    @property
    def avg_positions_per_mb(self) -> float:
        """Table 1's metric for this encode."""
        return self.search_stats.avg_positions_per_block

    def __repr__(self) -> str:
        return (
            f"EncodeResult({self.name!r}, {self.estimator_name}, qp={self.qp}, "
            f"{len(self.frames)} frames, {self.rate_kbps:.1f} kbit/s, "
            f"{self.mean_psnr_y:.2f} dB)"
        )


class Encoder:
    """Hybrid encoder with a pluggable motion estimator.

    Parameters
    ----------
    estimator:
        A :class:`MotionEstimator` instance or a registry name
        (``"acbm"``, ``"fsbm"``, ``"pbm"``, ``"tss"``, ...).
    qp:
        H.263 quantizer step (1..31), constant for the whole sequence.
    estimator_kwargs:
        Forwarded to :func:`repro.me.estimator.create_estimator` when
        ``estimator`` is a name.
    keep_reconstruction:
        Store reconstructed frames on the result (handy for analysis,
        off for large sweeps to save memory).
    bitstream_version:
        ``1`` (default) emits the seed format, byte-identical to the
        original encoder: pictures packed back to back with no
        alignment.  ``2`` prefixes every picture with a byte-aligned
        frame start code and a byte-length field (and zero-pads each
        picture to a byte boundary), so the stream is splittable into
        per-frame ranges without parsing — the symbols inside each
        picture are bit-identical to version 1.
    i_period:
        ``None`` (default) keeps the seed behaviour: one I-frame, then
        an open-ended P-chain.  ``N >= 1`` opens a new GOP every N
        frames with a spatially predicted I-frame; the reference list
        resets there, making each GOP independently decodable (random
        access via :class:`repro.codec.decoder.FrameIndex`) and
        independently *encodable*
        (:func:`repro.parallel.gop.encode_sequence_parallel`).
    n_ref_frames:
        Reference list depth (1..8).  ``1`` (default) is the seed
        single-reference closed loop; ``K > 1`` searches each P-frame
        against the K most recent reconstructions and codes a per-MB
        reference index, switching those P-frames to the extended
        picture syntax.
    """

    def __init__(
        self,
        estimator: MotionEstimator | str = "acbm",
        qp: int = 16,
        estimator_kwargs: dict | None = None,
        keep_reconstruction: bool = True,
        bitstream_version: int = 1,
        i_period: int | None = None,
        n_ref_frames: int = 1,
    ) -> None:
        self.qp = check_qp(qp)
        if isinstance(estimator, str):
            estimator = create_estimator(estimator, **(estimator_kwargs or {}))
        elif estimator_kwargs:
            raise ValueError("estimator_kwargs only applies when estimator is a name")
        self.estimator = estimator
        self.keep_reconstruction = keep_reconstruction
        if bitstream_version not in (1, 2):
            raise ValueError(f"bitstream_version must be 1 or 2, got {bitstream_version}")
        self.bitstream_version = bitstream_version
        if i_period is not None and i_period < 1:
            raise ValueError(
                f"i_Period must be a positive GOP length in frames "
                f"(or None for one open-ended GOP), got {i_period}"
            )
        if not 1 <= n_ref_frames <= MAX_REF_FRAMES:
            raise ValueError(
                f"nRefFrames must be between 1 and {MAX_REF_FRAMES} "
                f"(the 3-bit active-reference field's reach), got {n_ref_frames}"
            )
        self.i_period = i_period
        self.n_ref_frames = n_ref_frames

    @property
    def gop_syntax(self) -> bool:
        """Whether this configuration uses the extended (GOP) picture
        syntax anywhere.  ``False`` means every emitted byte matches
        the seed encoder."""
        return self.i_period is not None or self.n_ref_frames > 1

    def is_intra_position(self, position: int) -> bool:
        """Frame-type decision: position 0 always, then every
        ``i_period``-th frame when a GOP period is set."""
        return position == 0 or (self.i_period is not None and position % self.i_period == 0)

    # -- public API ----------------------------------------------------

    def encode_frame_into(
        self,
        writer: BitWriter,
        frame: Frame,
        position: int,
        references: "Frame | list[Frame] | None",
        prev_field: MotionField | None,
    ) -> tuple[FrameRecord, Frame, MotionField | None]:
        """Encode one frame (intra at GOP openings, inter otherwise)
        into ``writer``, including any version-2 framing.

        ``references`` is the reference list, most recent first (a bare
        :class:`Frame` or ``None`` is accepted for single-reference
        callers).  Returns ``(record, reconstruction, motion_field)`` —
        thread the reconstruction back through
        :meth:`advance_references` and pass the field to the next call.
        This is the single per-frame step :meth:`encode`, the streaming
        encoder (:class:`repro.streaming.StreamEncoder`) and the
        per-GOP job (:class:`repro.parallel.jobs.GopEncodeJob`) all
        drive, which is what makes their emitted bytes identical by
        construction.
        """
        with trace.span("encode.frame", position=position) as frame_span:
            refs = self._as_reference_list(references)
            framed = self.bitstream_version == 2
            if framed:
                frame_start_bits = writer.bit_count
                writer.align()
                writer.write_bits(FRAME_START_CODE, FRAME_START_CODE_BITS)
                length_pos = writer.byte_length
                writer.write_bits(0, FRAME_LENGTH_BITS)  # backpatched below
                payload_start = writer.byte_length
            if self.is_intra_position(position):
                if self.gop_syntax:
                    bits, recon, coef_bits = self._encode_intra_pred_frame(writer, frame)
                else:
                    bits, recon, coef_bits = self._encode_intra_frame(writer, frame)
                record = FrameRecord(
                    index=frame.index,
                    frame_type="I",
                    bits=bits,
                    psnr_y=psnr(frame.y, recon.y),
                    psnr_cb=psnr(frame.cb, recon.cb),
                    psnr_cr=psnr(frame.cr, recon.cr),
                    stats=None,
                    coefficient_bits=coef_bits,
                )
                field = None
                header_bits = PICTURE_HEADER_BITS
            else:
                if not refs:
                    raise ValueError(f"P-frame at position {position} without a reference")
                bits, recon, skipped, mv_bits, coef_bits, field, stats = self._encode_inter_frame(
                    writer, frame, refs, prev_field
                )
                header_bits = PICTURE_HEADER_BITS + (3 if self.n_ref_frames > 1 else 0)
                record = FrameRecord(
                    index=frame.index,
                    frame_type="P",
                    bits=bits,
                    psnr_y=psnr(frame.y, recon.y),
                    psnr_cb=psnr(frame.cb, recon.cb),
                    psnr_cr=psnr(frame.cr, recon.cr),
                    stats=stats,
                    skipped_mbs=skipped,
                    mv_bits=mv_bits,
                    coefficient_bits=coef_bits,
                )
            if framed:
                # Close the frame: pad to a byte boundary, backpatch the
                # length field, and charge the framing + padding bits to
                # the frame so v2 rate numbers reflect emitted bytes.
                writer.align()
                writer.patch_u32(length_pos, writer.byte_length - payload_start)
                record = dataclass_replace(record, bits=writer.bit_count - frame_start_bits)
            frame_span.set(frame=frame.index, type=record.frame_type, bits=record.bits)
        # Registry counts.  ``record.bits`` is what the frame emitted
        # (v2 includes framing + padding); the start code, length field
        # and alignment bits are charged to the headers bucket so
        # headers + mode + MV + coefficients == encode.bits exactly.
        _MET_FRAMES_OUT.inc()
        _MET_BITS_OUT.inc(record.bits)
        _MET_BITS_PER_FRAME.observe(record.bits)
        _MET_BITS_HEADER.inc(header_bits + (record.bits - bits))
        _MET_BITS_MV.inc(record.mv_bits)
        _MET_BITS_COEF.inc(record.coefficient_bits)
        _MET_BITS_MODE.inc(bits - header_bits - record.mv_bits - record.coefficient_bits)
        if record.stats is not None:
            _MET_SAD_EVALS.inc(record.stats.positions)
        return record, recon, field

    @staticmethod
    def _as_reference_list(references: "Frame | list[Frame] | None") -> list[Frame]:
        if references is None:
            return []
        if isinstance(references, Frame):
            return [references]
        return list(references)

    def advance_references(
        self, references: "Frame | list[Frame] | None", record: FrameRecord, recon: Frame
    ) -> list[Frame]:
        """Fold one encoded frame into the reference list (most recent
        first): I-frames reset the list — the GOP-independence rule that
        makes per-GOP parallel encode splice-identical — and P-frames
        push onto it, trimmed to ``n_ref_frames``."""
        if record.frame_type == "I":
            return [recon]
        return [recon, *self._as_reference_list(references)][: self.n_ref_frames]

    def encode(self, sequence: Sequence) -> EncodeResult:
        """Encode a whole sequence (GOP openings intra, rest inter)."""
        writer = BitWriter()
        records: list[FrameRecord] = []
        reconstruction: list[Frame] = []
        references: list[Frame] = []
        prev_field: MotionField | None = None
        for i, frame in enumerate(sequence):
            record, recon, prev_field = self.encode_frame_into(
                writer, frame, i, references, prev_field
            )
            records.append(record)
            references = self.advance_references(references, record, recon)
            if self.keep_reconstruction:
                reconstruction.append(recon)
        return EncodeResult(
            name=sequence.name,
            qp=self.qp,
            estimator_name=self.estimator.name or type(self.estimator).__name__,
            fps=sequence.fps,
            frames=records,
            bitstream=writer.getvalue(),
            reconstruction=reconstruction,
            bitstream_version=self.bitstream_version,
        )

    # -- frame coding ----------------------------------------------------

    def _write_picture_header(
        self,
        writer: BitWriter,
        frame: Frame,
        frame_type: str,
        extended: bool = False,
        active_refs: int = 1,
    ) -> int:
        before = writer.bit_count
        geometry = frame.geometry
        writer.write_bits(START_CODE_EXT if extended else START_CODE, START_CODE_BITS)
        writer.write_bit(0 if frame_type == "I" else 1)
        writer.write_bits(self.qp, 5)
        writer.write_bits(self.estimator.p, 5)
        writer.write_bits(geometry.mb_rows, 8)
        writer.write_bits(geometry.mb_cols, 8)
        if extended and frame_type == "P":
            writer.write_bits(active_refs - 1, 3)
        return writer.bit_count - before

    def _encode_intra_frame(self, writer: BitWriter, frame: Frame) -> tuple[int, Frame, int]:
        """Seed-syntax I-frame: every block is intra coded with no
        prediction, so the whole frame is one DCT → quantise → IDCT
        pass and only the symbol writes walk the macroblocks."""
        start_bits = writer.bit_count
        self._write_picture_header(writer, frame, "I")
        phase = trace.phases()
        with phase("encode.transform_quant"):
            coefficients = forward_dct(split_frame_blocks(frame.y, frame.cb, frame.cr))
            dc_levels = quantize_intra_dc(coefficients[..., 0, 0])
            levels = quantize_intra_ac(coefficients, self.qp)
            levels[..., 0, 0] = 0
            coded, events = blocks_to_events(levels, skip_first=1)
        cbpy, mcbpc = coded_block_patterns(coded)
        coef_bits = 0
        with phase("encode.entropy"):
            for m, (mb_cbpy, mb_mcbpc, mb_dc) in enumerate(
                zip(cbpy.ravel().tolist(), mcbpc.ravel().tolist(), dc_levels.reshape(-1, 6).tolist())
            ):
                writer.write_code(MCBPC_TABLE.encode(mb_mcbpc))
                writer.write_code(CBPY_TABLE.encode(mb_cbpy))
                for dc_level, block_events in zip(mb_dc, events[6 * m : 6 * m + 6]):
                    writer.write_bits(dc_level, 8)
                    if block_events:
                        coef_bits += write_events(writer, block_events)
        coefficients = dequantize(levels, self.qp)
        coefficients[..., 0, 0] = dequantize_intra_dc(dc_levels)
        recon = _local_decode(coefficients, (0.0, 0.0, 0.0))
        phase.emit(frame=frame.index)
        total = writer.bit_count - start_bits
        return total, Frame(*recon, index=frame.index), coef_bits

    def _encode_intra_pred_frame(self, writer: BitWriter, frame: Frame) -> tuple[int, Frame, int]:
        """GOP-syntax I-frame: per-MB spatial prediction mode (2 bits),
        then inter-style residual coding of the prediction error.

        The mode decision is open-loop on the source luma (batched
        :func:`intra_mode_cost_surfaces`); the prediction itself reads
        the reconstructed neighbours the decoder will have, so this
        coder transforms and reconstructs one macroblock at a time.
        """
        start_bits = writer.bit_count
        self._write_picture_header(writer, frame, "I", extended=True)
        geometry = frame.geometry
        modes = choose_intra_modes(intra_mode_cost_surfaces(frame.y))
        source = (frame.y, frame.cb, frame.cr)
        recon = tuple(np.empty_like(plane) for plane in source)
        coef_bits = 0
        phase = trace.phases()
        for r in range(geometry.mb_rows):
            for c in range(geometry.mb_cols):
                mode = int(modes[r, c])
                writer.write_bits(mode, INTRA_MODE_BITS)
                pred = [
                    intra_predict(plane, r, c, size, mode) for plane, size in zip(recon, (16, 8, 8))
                ]
                levels, events, cbpy, mcbpc = self._transform_quantise(
                    macroblock_views(source, r, c), pred, phase
                )
                with phase("encode.entropy"):
                    writer.write_code(MCBPC_TABLE.encode(int(mcbpc[0, 0])))
                    writer.write_code(CBPY_TABLE.encode(int(cbpy[0, 0])))
                    coef_bits += _write_coefficients(writer, events)
                residual = inverse_dct(dequantize(levels, self.qp))
                reconstruct_macroblock(recon, r, c, residual[0, 0], pred)
        phase.emit(frame=frame.index)
        total = writer.bit_count - start_bits
        return total, Frame(*recon, index=frame.index), coef_bits

    def _encode_inter_frame(
        self,
        writer: BitWriter,
        frame: Frame,
        references: list[Frame],
        prev_field: MotionField | None,
    ) -> tuple[int, Frame, int, int, int, MotionField, SearchStats]:
        """P-frame: search every active reference, then code and
        local-decode the whole frame's prediction error.

        With one active reference every macroblock predicts from it.
        With several, each macroblock takes the reference with minimal
        compensated-luma SAD (ties toward the most recent), and the
        prediction planes are composited per macroblock exactly as the
        decoder composites them.  Pictures of an ``n_ref_frames > 1``
        encoder use the extended syntax, which codes an exp-Golomb
        reference index per coded macroblock.

        Once the vectors are fixed nothing spatial remains: the residual
        takes one whole-frame DCT → quantise → IDCT pass, and only the
        entropy walk (COD, MCBPC/CBPY, reference index, MVD, TCOEF) runs
        per macroblock.
        """
        active = references[: self.n_ref_frames]
        extended = self.n_ref_frames > 1
        start_bits = writer.bit_count
        self._write_picture_header(writer, frame, "P", extended=extended, active_refs=len(active))
        rows, cols = frame.geometry.mb_rows, frame.geometry.mb_cols
        # One luma cache per reference, shared by the motion search and
        # the motion compensation below — both read the same
        # interpolated half-pel samples.
        planes = [ReferencePlane.wrap(ref.y) for ref in active]
        fields: list[MotionField] = []
        stats = SearchStats()
        with trace.span("encode.me", references=len(active)):
            for ref, plane in zip(active, planes):
                f, ref_stats = self.estimator.estimate(
                    frame.y, ref.y, prev_field=prev_field, qp=self.qp, ref_plane=plane
                )
                fields.append(f)
                stats.merge(ref_stats)
        if not all(f.is_complete for f in fields):
            r, c = next((r, c) for r, c, _ in fields[0] if any(f.get(r, c) is None for f in fields))
            raise ValueError(f"motion field missing entry ({r}, {c})")
        arrays = [f.to_arrays() for f in fields]
        luma_preds = [frame_mc_luma(plane, hx, hy) for plane, (hx, hy) in zip(planes, arrays)]
        if len(active) == 1:
            choice = np.zeros((rows, cols), dtype=np.int64)
            field = fields[0]
            field_hx, field_hy = arrays[0]
        else:
            cur = frame.y.astype(np.int64)
            sads = np.stack(
                [
                    np.abs(cur - pred).reshape(rows, 16, cols, 16).sum(axis=(1, 3))
                    for pred in luma_preds
                ]
            )
            choice = np.argmin(sads, axis=0)
            # The chosen per-MB vectors become one combined field: it
            # feeds MVD prediction, chroma MC and the next frame's search.
            field_hx = np.choose(choice, [hx for hx, _ in arrays])
            field_hy = np.choose(choice, [hy for _, hy in arrays])
            field = MotionField.from_arrays(field_hx, field_hy)

        def predict(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            chroma = ChromaReferencePlane(active[k].cb, active[k].cr)
            return (luma_preds[k], *chroma.mc_frame(field_hx, field_hy, self.estimator.p))

        pred = composite_predictions(choice, predict)
        phase = trace.phases()
        levels, events, cbpy, mcbpc = self._transform_quantise(
            (frame.y, frame.cb, frame.cr), pred, phase
        )
        # Vectors as the decoder will see them (skip forces zero); used
        # for median prediction of subsequent MVDs.
        coded_field = MotionField(rows, cols)
        skipped = 0
        mv_bits_total = 0
        coef_bits_total = 0
        with phase("encode.entropy"):
            cbpy, mcbpc, choice = cbpy.tolist(), mcbpc.tolist(), choice.tolist()
            for r in range(rows):
                for c in range(cols):
                    k = choice[r][c]
                    mv = field.get(r, c)
                    if k == 0 and mv.is_zero and cbpy[r][c] == 0 and mcbpc[r][c] == 0:
                        writer.write_bit(1)  # COD: skipped (reference 0, zero vector)
                        skipped += 1
                        coded_field.set(r, c, MotionVector.zero())
                        continue
                    writer.write_bit(0)  # COD: coded
                    writer.write_code(MCBPC_TABLE.encode(mcbpc[r][c]))
                    writer.write_code(CBPY_TABLE.encode(cbpy[r][c]))
                    if extended:
                        writer.write_ue(k)
                    predictor = predict_mv(coded_field, r, c)
                    mv_bits_total += write_mvd(writer, mv, predictor)
                    coded_field.set(r, c, mv)
                    m = 6 * (r * cols + c)
                    coef_bits_total += _write_coefficients(writer, events[m : m + 6])
        # A skipped macroblock has all-zero levels, so its residual is
        # zero and it reconstructs to the prediction, as in the decoder.
        recon = _local_decode(dequantize(levels, self.qp), pred)
        phase.emit(frame=frame.index)
        total = writer.bit_count - start_bits
        recon_frame = Frame(*recon, index=frame.index)
        return total, recon_frame, skipped, mv_bits_total, coef_bits_total, field, stats

    def _transform_quantise(self, source, pred, phase) -> tuple[np.ndarray, list, np.ndarray, np.ndarray]:
        """Transform and quantise the prediction error of (Y, Cb, Cr)
        planes — a whole frame or one macroblock's views.

        Returns the ``(rows, cols, 6, 8, 8)`` level grid, the blocks'
        event lists in C order (see :func:`blocks_to_events`) and the
        per-macroblock CBPY and MCBPC grids they imply.
        """
        residual = [plane.astype(np.int16) - p for plane, p in zip(source, pred)]
        with phase("encode.transform_quant"):
            # Nested so the float64 block grid is freed before quantising.
            levels = quantize_inter(forward_dct(split_frame_blocks(*residual)), self.qp)
            coded, events = blocks_to_events(levels)
        cbpy, mcbpc = coded_block_patterns(coded)
        return levels, events, cbpy, mcbpc


def _write_coefficients(writer: BitWriter, events) -> int:
    """TCOEF events of every coded block, in block order; returns the
    bits written."""
    return sum(write_events(writer, block_events) for block_events in events if block_events)


def _local_decode(coefficients: np.ndarray, pred) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The decoder's reconstruction of a ``(rows, cols, 6, 8, 8)``
    dequantised coefficient grid over (Y, Cb, Cr) prediction planes:
    one inverse DCT, tiling, then ``add_residual_clip``."""
    residual = inverse_dct(coefficients)
    return (
        add_residual_clip(pred[0], tile_luma_blocks(residual[:, :, :4])),
        add_residual_clip(pred[1], tile_blocks(residual[:, :, 4])),
        add_residual_clip(pred[2], tile_blocks(residual[:, :, 5])),
    )


def encode_sequence(
    sequence: Sequence,
    qp: int = 16,
    estimator: MotionEstimator | str = "acbm",
    estimator_kwargs: dict | None = None,
    keep_reconstruction: bool = False,
    bitstream_version: int = 1,
    i_period: int | None = None,
    n_ref_frames: int = 1,
) -> EncodeResult:
    """One-call convenience wrapper around :class:`Encoder`.

    >>> from repro.video.synthesis.sequences import make_sequence
    >>> seq = make_sequence("miss_america", frames=3)
    >>> result = encode_sequence(seq, qp=16, estimator="pbm")
    >>> result.total_bits > 0
    True
    """
    encoder = Encoder(
        estimator=estimator,
        qp=qp,
        estimator_kwargs=estimator_kwargs,
        keep_reconstruction=keep_reconstruction,
        bitstream_version=bitstream_version,
        i_period=i_period,
        n_ref_frames=n_ref_frames,
    )
    return encoder.encode(sequence)
