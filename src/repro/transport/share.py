"""Typed sharing layer over the arena: whole codec values as handles.

:mod:`repro.transport.arena` moves single arrays; this module moves the
*values* the job layer actually exchanges — :class:`~repro.video.frame.Frame`
(three planes), whole :class:`~repro.video.sequence.Sequence` renders
(→ :class:`SharedSequence`), :class:`~repro.codec.decoder.ParsedPicture`
(levels, DC levels, motion arrays), bare ``ndarray`` leaves (Fig. 4 rig
frames) and lists/tuples of any of those — by swapping every array leaf
for a :class:`~repro.transport.arena.FrameHandle` and keeping the
scalar skeleton as-is.  Values with no array leaves (``SweepCell``
rows, floats, strings) pass through untouched: they were never a
transport problem.

Two directions:

* :func:`share` — replace array leaves with handles via a caller-supplied
  ``place`` function (an arena's :meth:`~repro.transport.arena.FrameArena.place`
  for producer-owned lifetime).
* :func:`export` / :func:`materialize` — the ownership-transfer pair for
  worker results: ``export`` packs all of a value's arrays into **one**
  one-shot segment (:func:`~repro.transport.arena.export_segment`) and
  returns the handle skeleton; ``materialize`` rebuilds the value with
  owned copies and unlinks every segment it read, leaving ``/dev/shm``
  clean.  ``materialize`` also reverses :func:`share`, with
  ``unlink=False`` so arena-owned segments survive for other consumers.

:func:`payload_bytes` and :func:`handle_count` are the accounting
surface: what a value would cost to pickle by payload, and how many
handles replaced that cost — the numbers ``tests/test_transport.py``
pins and ``SessionStats`` reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.codec.decoder import ParsedPicture, PictureHeader
from repro.transport.arena import (
    FrameHandle,
    export_segment,
    read_array,
    unlink_segment,
)
from repro.video.frame import Frame
from repro.video.sequence import Sequence


@dataclass(frozen=True)
class SharedFrame:
    """A :class:`Frame` with its planes in shared memory."""

    y: FrameHandle
    cb: FrameHandle
    cr: FrameHandle
    index: int


@dataclass(frozen=True)
class SharedSequence:
    """A :class:`~repro.video.sequence.Sequence` with every frame's
    planes in shared memory.

    The scalar skeleton (name, frame rate, per-frame indices) rides in
    the pickle; the pixels stay in the arena.  Hashable, so job specs
    carrying one remain usable as cache/dedup keys."""

    name: str
    fps: float
    frames: tuple[SharedFrame, ...]


@dataclass(frozen=True)
class SharedParsedPicture:
    """A :class:`ParsedPicture` with its arrays in shared memory.

    The header (five ints) rides along in the pickle; ``None`` members
    stay ``None`` (intra pictures have no motion arrays and inter
    pictures no DC levels).
    """

    header: PictureHeader
    levels: FrameHandle
    dc_levels: FrameHandle | None
    hx: FrameHandle | None
    hy: FrameHandle | None
    modes: FrameHandle | None = None
    ref_idx: FrameHandle | None = None


def _frame_arrays(frame: Frame) -> list[np.ndarray]:
    return [frame.y, frame.cb, frame.cr]


def _parsed_arrays(parsed: ParsedPicture) -> list[np.ndarray]:
    members = (parsed.levels, parsed.dc_levels, parsed.hx, parsed.hy, parsed.modes, parsed.ref_idx)
    return [a for a in members if a is not None]


def iter_arrays(value) -> list[np.ndarray]:
    """Every array leaf of ``value`` in sharing order (the traversal
    :func:`share` uses, so a sizing pass and a placing pass agree).
    Bare ``ndarray`` leaves count as themselves — a Fig. 4 rig frame or
    a raw plane is as much payload as a wrapped one."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, Frame):
        return _frame_arrays(value)
    if isinstance(value, ParsedPicture):
        return _parsed_arrays(value)
    if isinstance(value, Sequence):
        out: list[np.ndarray] = []
        for frame in value:
            out.extend(_frame_arrays(frame))
        return out
    if isinstance(value, (list, tuple)):
        out = []
        for item in value:
            out.extend(iter_arrays(item))
        return out
    return []


def share(value, place: Callable[[np.ndarray], FrameHandle]):
    """Swap every array leaf of ``value`` for a handle from ``place``.

    Lists/tuples recurse (preserving type); a
    :class:`~repro.video.sequence.Sequence` becomes a
    :class:`SharedSequence`; bare arrays become bare handles; values
    with no array leaves return unchanged.
    """
    if isinstance(value, np.ndarray):
        return place(value)
    if isinstance(value, Frame):
        return SharedFrame(
            y=place(value.y), cb=place(value.cb), cr=place(value.cr), index=value.index
        )
    if isinstance(value, Sequence):
        return SharedSequence(
            name=value.name,
            fps=value.fps,
            frames=tuple(share(frame, place) for frame in value),
        )
    if isinstance(value, ParsedPicture):
        return SharedParsedPicture(
            header=value.header,
            levels=place(value.levels),
            dc_levels=None if value.dc_levels is None else place(value.dc_levels),
            hx=None if value.hx is None else place(value.hx),
            hy=None if value.hy is None else place(value.hy),
            modes=None if value.modes is None else place(value.modes),
            ref_idx=None if value.ref_idx is None else place(value.ref_idx),
        )
    if isinstance(value, (list, tuple)):
        return type(value)(share(item, place) for item in value)
    return value


def export(value, name_prefix: str = "repro-tx"):
    """Ownership-transfer form of :func:`share`: all of ``value``'s
    arrays go into one fresh segment whose lifetime now belongs to
    whoever :func:`materialize`\\ s the result.  Values without array
    leaves come back unchanged (and cost nothing)."""
    arrays = iter_arrays(value)
    if not arrays:
        return value
    handles = iter(export_segment(arrays, name_prefix=name_prefix))
    return share(value, lambda _array: next(handles))


def materialize(value, unlink: bool = True):
    """Rebuild a shared value with owned arrays.

    ``unlink=True`` (the receiver of an :func:`export`) destroys every
    segment the value referenced after copying out of it; pass
    ``unlink=False`` for arena-owned handles whose lifetime the arena's
    refcounts manage.
    """
    segments: set[str] = set()

    def fetch(handle: FrameHandle | None):
        if handle is None:
            return None
        segments.add(handle.segment)
        return read_array(handle)

    def rebuild(node):
        if isinstance(node, FrameHandle):
            return fetch(node)
        if isinstance(node, SharedFrame):
            return Frame(fetch(node.y), fetch(node.cb), fetch(node.cr), index=node.index)
        if isinstance(node, SharedSequence):
            return Sequence(
                (rebuild(frame) for frame in node.frames), fps=node.fps, name=node.name
            )
        if isinstance(node, SharedParsedPicture):
            return ParsedPicture(
                header=node.header,
                levels=fetch(node.levels),
                dc_levels=fetch(node.dc_levels),
                hx=fetch(node.hx),
                hy=fetch(node.hy),
                modes=fetch(node.modes),
                ref_idx=fetch(node.ref_idx),
            )
        if isinstance(node, (list, tuple)):
            return type(node)(rebuild(item) for item in node)
        return node

    rebuilt = rebuild(value)
    if unlink:
        for name in segments:
            unlink_segment(name)
    return rebuilt


# -- accounting -----------------------------------------------------------


def payload_bytes(value) -> int:
    """Bytes of array/bytes payload ``value`` would drag through a
    pickle: the quantity shared-memory transport removes.  Handles and
    scalar skeletons do not count.  Containers recurse, so ``bytes``
    leaves nested in Fig. 4 frame-pair tuples or GOP plane lists are
    counted too, not just top-level blobs."""
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    if isinstance(value, (list, tuple)):
        return sum(payload_bytes(item) for item in value)
    return sum(arr.nbytes for arr in iter_arrays(value))


def handle_count(value) -> int:
    """How many :class:`FrameHandle` leaves a (shared) value carries."""
    if isinstance(value, FrameHandle):
        return 1
    if isinstance(value, SharedFrame):
        return 3
    if isinstance(value, SharedSequence):
        return handle_count(value.frames)
    if isinstance(value, SharedParsedPicture):
        members = (value.levels, value.dc_levels, value.hx, value.hy, value.modes, value.ref_idx)
        return sum(1 for h in members if h is not None)
    if isinstance(value, (list, tuple)):
        return sum(handle_count(item) for item in value)
    return 0
