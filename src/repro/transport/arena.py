"""Shared-memory frame arena: payloads cross process boundaries as handles.

The job pool moves payloads to its spawned workers by *pickling* them:
every byte is serialized in the parent, shipped over a pipe and
deserialized in the worker.  This module is the alternative the
per-GOP encode can opt into: payload arrays live in
``multiprocessing.shared_memory`` blocks, and what crosses the pickle
boundary is a :class:`FrameHandle` — segment name, byte offset, shape,
dtype — a few hundred bytes regardless of payload size.

Two roles, two surfaces:

* **Producer-owned lifetime** — :class:`FrameArena` places arrays into
  slab segments it owns (bump allocation, 64-byte aligned) and hands
  out handles.  A segment lives until the arena closes: the arena is a
  context manager whose exit unlinks every segment it created, so no
  ``/dev/shm`` entry survives a ``with`` block.
* **Consumer attach** — :func:`attach_array` maps a handle to a NumPy
  view over the segment, attaching each segment **on first use** and
  caching the mapping per process (spawned workers import this module
  fresh, so their first handle triggers the attach).  Views are valid
  until the segment is evicted from the bounded cache or detached;
  :func:`read_array` returns an owned copy with no lifetime string
  attached.

Resource-tracker hygiene: every process that creates *or* attaches a
segment registers it with the (shared, spawn-inherited) resource
tracker, whose registry is a name set — so the protocol "exactly one
process unlinks, and nobody attaches after the unlink" leaves the
tracker clean and warning-free at exit.  The arena is that one
unlinker.
"""

from __future__ import annotations

import secrets
from collections import OrderedDict
from dataclasses import dataclass
from math import prod
from multiprocessing import shared_memory

import numpy as np

from repro.obs import metrics

#: Byte alignment of every placed array (cache-line sized, and enough
#: for any NumPy dtype).
ALIGNMENT = 64

#: Live shared-memory bytes across every arena in this process: slab
#: sizes are added when a segment is created and subtracted when it is
#: destroyed, so the gauge (and its peak) bounds actual ``/dev/shm``
#: residency rather than logical payload bytes.
_MET_BYTES_IN_FLIGHT = metrics.gauge("arena.bytes_in_flight")
_MET_PLACEMENTS = metrics.counter("arena.placements")
_MET_SEGMENTS = metrics.counter("arena.segments")

#: Default slab size for arena allocations.  One QCIF frame's three
#: planes are ~38 KB, so the default slab holds a couple dozen frames.
DEFAULT_SLAB_BYTES = 1 << 20

#: Most segments a process keeps attached at once; least-recently-used
#: mappings beyond this are closed (their views die with them).
ATTACH_CACHE_SEGMENTS = 32


def _new_segment_name(prefix: str) -> str:
    return f"{prefix}-{secrets.token_hex(8)}"


@dataclass(frozen=True)
class FrameHandle:
    """A picklable reference to one array inside a shared segment.

    This is the only thing that crosses the process boundary: ~200
    pickled bytes whether it names a 16-byte motion row or a CIF frame.
    """

    segment: str
    offset: int
    shape: tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        """Byte size of the referenced array."""
        return prod(self.shape, start=1) * np.dtype(self.dtype).itemsize


def _aligned(offset: int) -> int:
    return (offset + ALIGNMENT - 1) & ~(ALIGNMENT - 1)


# -- consumer side: attach-on-first-use ----------------------------------

#: Process-local cache of attached segments (LRU, bounded).  Spawned
#: workers start empty and fill it as handles arrive.
_ATTACHED: "OrderedDict[str, shared_memory.SharedMemory]" = OrderedDict()


def _attached_segment(name: str) -> shared_memory.SharedMemory:
    seg = _ATTACHED.get(name)
    if seg is not None:
        _ATTACHED.move_to_end(name)
        return seg
    seg = shared_memory.SharedMemory(name=name)
    _ATTACHED[name] = seg
    while len(_ATTACHED) > ATTACH_CACHE_SEGMENTS:
        _, old = _ATTACHED.popitem(last=False)
        try:
            old.close()
        except BufferError:  # pragma: no cover - caller still holds views
            _ATTACHED[old.name] = old
            _ATTACHED.move_to_end(old.name, last=False)
            break
    return seg


def attach_array(handle: FrameHandle) -> np.ndarray:
    """A NumPy view of the handle's array, attaching the segment on
    first use in this process.

    The view aliases shared memory: it stays valid only while the
    segment remains attached (and not yet unlinked by its owner), so
    treat it as a short-lived read window — take :func:`read_array`
    for anything longer-lived.
    """
    seg = _attached_segment(handle.segment)
    return np.ndarray(
        handle.shape, dtype=np.dtype(handle.dtype), buffer=seg.buf, offset=handle.offset
    )


def read_array(handle: FrameHandle) -> np.ndarray:
    """An owned copy of the handle's array (no shared-memory lifetime)."""
    return np.array(attach_array(handle))


def detach_segment(name: str) -> None:
    """Drop this process's cached mapping of ``name`` (no-op when not
    attached).  Any views over it must be dead."""
    seg = _ATTACHED.pop(name, None)
    if seg is not None:
        seg.close()


def detach_all() -> None:
    """Close every cached mapping (hermetic tests / worker teardown)."""
    for name in list(_ATTACHED):
        detach_segment(name)


# -- producer side: the arena --------------------------------------------


class FrameArena:
    """Bump-allocating shared-memory arena whose segments live until it
    closes.

    Parameters
    ----------
    slab_bytes:
        Segment granularity.  Arrays larger than this get a dedicated
        segment of their own size.
    name_prefix:
        Segment name prefix (``/dev/shm/<prefix>-<hex>`` on Linux) —
        tests sweep by prefix to assert nothing leaked.

    Usage::

        with FrameArena() as arena:
            handle = arena.place(frame.y)
            ...                      # ship the handle, not the pixels
        # every segment unlinked here

    The arena object itself must never cross a process boundary — only
    handles do (workers attach on first use).  ``place`` after ``close``
    raises; ``close`` is idempotent.
    """

    def __init__(
        self, slab_bytes: int = DEFAULT_SLAB_BYTES, name_prefix: str = "repro-arena"
    ) -> None:
        if slab_bytes < 1:
            raise ValueError(f"slab_bytes must be >= 1, got {slab_bytes}")
        self._slab_bytes = slab_bytes
        self._prefix = name_prefix
        #: Every live segment; the last one takes new placements.
        self._segments: list[shared_memory.SharedMemory] = []
        self._used = 0
        self._closed = False

    @property
    def open_segments(self) -> int:
        """Segments currently alive (the leak-check quantity)."""
        return len(self._segments)

    def place(self, array: np.ndarray | bytes) -> FrameHandle:
        """Copy ``array`` into shared memory; returns its handle.

        ``bytes`` payloads are placed as 1-D ``uint8`` arrays.  The
        copy is the *last* copy: every consumer in every process reads
        the same physical pages through the handle.
        """
        if self._closed:
            raise ValueError("place() after close(): the arena was already torn down")
        if isinstance(array, (bytes, bytearray, memoryview)):
            array = np.frombuffer(array, dtype=np.uint8)
        array = np.ascontiguousarray(array)
        offset = _aligned(self._used)
        if not self._segments or offset + array.nbytes > self._segments[-1].size:
            self._new_segment(array.nbytes)
            offset = 0
        shm = self._segments[-1]
        if array.nbytes:
            view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf, offset=offset)
            view[...] = array
            del view
        self._used = offset + array.nbytes
        _MET_PLACEMENTS.inc()
        return FrameHandle(
            segment=shm.name,
            offset=offset,
            shape=tuple(array.shape),
            dtype=array.dtype.str,
        )

    def _new_segment(self, nbytes: int) -> None:
        shm = shared_memory.SharedMemory(
            create=True,
            size=max(self._slab_bytes, nbytes, 1),
            name=_new_segment_name(self._prefix),
        )
        self._segments.append(shm)
        _MET_SEGMENTS.inc()
        _MET_BYTES_IN_FLIGHT.add(shm.size)

    def close(self) -> None:
        """Unlink every segment.  Idempotent.  Handles already shipped
        become dangling — close only after every consumer is done (for
        pool runs: after ``run_jobs`` returns)."""
        if self._closed:
            return
        self._closed = True
        while self._segments:
            shm = self._segments.pop()
            detach_segment(shm.name)  # a same-process consumer may hold a mapping
            size = shm.size
            shm.close()
            shm.unlink()
            _MET_BYTES_IN_FLIGHT.add(-size)

    def __enter__(self) -> "FrameArena":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
