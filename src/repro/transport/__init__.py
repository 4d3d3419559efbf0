"""Zero-copy shared-memory frame transport.

Frame payloads cross process boundaries as :class:`FrameHandle`\\ s —
segment name, offset, shape, dtype — instead of pickled arrays:

* :class:`FrameArena` — producer-owned slab segments, all unlinked when
  the arena closes (no ``/dev/shm`` leaks);
* :func:`attach_array` / :func:`read_array` — consumer side,
  attach-on-first-use per process (spawn-safe).

``repro.parallel.encode_sequence_parallel(..., use_shm=True)`` is the
one consumer: ``run_jobs(..., use_shm=True)`` packs each
:class:`~repro.parallel.jobs.GopEncodeJob`'s source planes into a
run-scoped arena and the workers ``read_array`` them.  Every other job
and the default ``use_shm=False`` pickle their payloads; the encoded
bytes are identical either way.  This package imports nothing from the
codec.
"""

from repro.transport.arena import (
    FrameArena,
    FrameHandle,
    attach_array,
    detach_all,
    detach_segment,
    read_array,
)

__all__ = [
    "FrameArena",
    "FrameHandle",
    "attach_array",
    "detach_all",
    "detach_segment",
    "read_array",
]
