"""Raw planar YUV 4:2:0 file I/O.

The standard test clips the paper uses (Carphone, Foreman, Miss
America, Table) circulate as headerless planar ``.yuv`` files: for each
frame, a ``W*H`` luma plane followed by two ``W/2 * H/2`` chroma
planes, all ``uint8``.  This module reads and writes that format so a
user who *does* have the original clips can run every experiment on
them instead of the synthetic analogs.
"""

from __future__ import annotations

import os
from typing import Iterator

import numpy as np

from repro.video.frame import Frame, FrameGeometry
from repro.video.sequence import Sequence


def frame_size_bytes(geometry: FrameGeometry) -> int:
    """Bytes per 4:2:0 frame: Y + Cb + Cr."""
    return geometry.pixels + 2 * geometry.chroma_width * geometry.chroma_height


def iter_yuv_frames(
    path: str | os.PathLike,
    geometry: FrameGeometry,
    max_frames: int | None = None,
) -> Iterator[Frame]:
    """Stream frames from a raw planar 4:2:0 file, one at a time.

    This is the bounded-memory ingest path: only one frame's bytes are
    resident at a time, so it feeds
    :meth:`repro.codec.encoder.Encoder.encode_frames` directly for files
    of any size.  ``max_frames`` stops after that many frames without reading
    the rest of the file.

    Raises
    ------
    ValueError
        If the file size is not a whole number of frames — a truncated
        trailing frame or (far more often) a wrong geometry.  The error
        names the offending byte count so the two causes are
        distinguishable: a few stray bytes mean truncation, a large
        remainder means the geometry is wrong.
    """
    fsize = os.path.getsize(path)
    per_frame = frame_size_bytes(geometry)
    leftover = fsize % per_frame
    if leftover:
        raise ValueError(
            f"{path}: size {fsize} is not a multiple of the "
            f"{geometry.width}x{geometry.height} frame size {per_frame} — "
            f"{leftover} trailing bytes (truncated last frame, or wrong geometry)"
        )
    count = fsize // per_frame
    if max_frames is not None:
        count = min(count, max_frames)
    ch, cw = geometry.chroma_height, geometry.chroma_width
    with open(path, "rb") as fh:
        for index in range(count):
            raw = fh.read(per_frame)
            buf = np.frombuffer(raw, dtype=np.uint8)
            y_end = geometry.pixels
            cb_end = y_end + ch * cw
            y = buf[:y_end].reshape(geometry.height, geometry.width)
            cb = buf[y_end:cb_end].reshape(ch, cw)
            cr = buf[cb_end:].reshape(ch, cw)
            yield Frame(y.copy(), cb.copy(), cr.copy(), index=index)


def write_yuv(path: str | os.PathLike, sequence: Sequence) -> int:
    """Write a sequence as raw planar 4:2:0.  Returns bytes written."""
    written = 0
    with open(path, "wb") as fh:
        for frame in sequence:
            for plane in (frame.y, frame.cb, frame.cr):
                data = np.ascontiguousarray(plane).tobytes()
                fh.write(data)
                written += len(data)
    return written
