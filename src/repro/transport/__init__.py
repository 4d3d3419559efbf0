"""Zero-copy shared-memory frame transport.

Frame and bitstream payloads cross process boundaries as
:class:`FrameHandle`\\ s — segment name, offset, shape, dtype — instead
of pickled arrays:

* :class:`FrameArena` — producer-owned slab segments with refcounted
  release and context-manager teardown (no ``/dev/shm`` leaks);
* :func:`attach_array` / :func:`read_array` — consumer side,
  attach-on-first-use per process (spawn-safe);
* :func:`export` / :func:`materialize` — ownership transfer for worker
  results: one one-shot segment per value, unlinked by the receiver;
* :func:`share` — swap a codec value's array leaves
  (:class:`~repro.video.frame.Frame`, whole
  :class:`~repro.video.sequence.Sequence` renders,
  :class:`~repro.codec.decoder.ParsedPicture`, bare arrays,
  lists/tuples) for handles placed through an arena;
* :class:`FrameStore` — memoizing render-once front-end over one arena:
  the parent renders each distinct experiment source a single time and
  every job spec that packs against the store receives the same
  handles.

``repro.parallel.run_jobs(..., use_shm=True)`` is the one consumer —
the experiment fan-out, per-GOP encode and ``decode_bitstream(jobs=N,
use_shm=True)``'s parse jobs all reach it; ``use_shm=False`` everywhere
falls back to the byte-identical pickling path.  The pipelined
:class:`repro.streaming.StreamDecoder` parses on a thread and moves
nothing through here.
"""

from repro.transport.arena import (
    ATTACH_CACHE_SEGMENTS,
    FrameArena,
    FrameHandle,
    attach_array,
    detach_all,
    detach_segment,
    export_segment,
    read_array,
    unlink_segment,
)
from repro.transport.share import (
    SharedFrame,
    SharedParsedPicture,
    SharedSequence,
    export,
    iter_arrays,
    materialize,
    share,
)
from repro.transport.store import FrameStore

__all__ = [
    "ATTACH_CACHE_SEGMENTS",
    "FrameArena",
    "FrameHandle",
    "FrameStore",
    "SharedFrame",
    "SharedParsedPicture",
    "SharedSequence",
    "attach_array",
    "detach_all",
    "detach_segment",
    "export",
    "export_segment",
    "iter_arrays",
    "materialize",
    "read_array",
    "share",
    "unlink_segment",
]
