"""Per-block reference decoder: the golden oracle for every
reconstruction path.

The production decoder (:mod:`repro.codec.decoder`) parses pictures
with the word-level LUT reader (or a compiled backend) and rebuilds
pixels with batched whole-frame kernels; the encoder's local decode
uses the same cached motion compensation.  This module decodes the same
streams the seed way and shares none of that machinery: the per-bit
:class:`~repro.codec.bitstream.ScalarBitReader` parse, then one
macroblock at a time — dequantisation, an inverse DCT of the six
blocks, and a prediction interpolated straight from the raw reference
planes (:func:`~repro.me.subpel.predict_block`,
:func:`~repro.codec.macroblock.predict_chroma_block`) or, in GOP
I-frames, :func:`~repro.codec.intra.intra_predict`.

Tests, benchmarks and ``repro.experiments.decode_bench`` import it to
check that the encoder's reconstruction, :func:`decode_bitstream` here
and :func:`repro.codec.decoder.decode_bitstream` agree bit for bit.
Nothing in the codec imports it.
"""

from __future__ import annotations

import numpy as np

from repro.codec.bitstream import ScalarBitReader
from repro.codec.dct import inverse_dct
from repro.codec.decoder import ParsedPicture, parse_bitstream_symbols
from repro.codec.encoder import MAX_REF_FRAMES
from repro.codec.intra import intra_predict
from repro.codec.macroblock import join_luma_blocks, predict_chroma_block
from repro.codec.quantizer import dequantize, dequantize_intra_dc
from repro.me.subpel import predict_block
from repro.me.types import MotionVector
from repro.video.frame import Frame


def decode_bitstream(bitstream: bytes) -> list[Frame]:
    """Decode every picture of a version-1 or -2 stream, one
    macroblock at a time."""
    frames: list[Frame] = []
    references: list[Frame] = []
    parsed = parse_bitstream_symbols(bitstream, reader_factory=ScalarBitReader)
    for index, picture in enumerate(parsed):
        frame = _reconstruct(picture, references, index)
        if picture.header.frame_type == "I":
            references = [frame]
        else:
            references = [frame, *references][:MAX_REF_FRAMES]
        frames.append(frame)
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
