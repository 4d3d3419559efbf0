"""Process-parallel experiment orchestration.

The paper's experiments decompose into independent units — one encode
per RD-sweep cell, one frame pair per Fig. 4 observation batch, one GOP
per parallel encode, one frame per parallel parse — and every estimator
is stateless, so the layer above the frame-level kernels shards *jobs*
across processes:

* :mod:`repro.parallel.jobs` — hashable, picklable job specs
  (:class:`EncodeJob`, :class:`SweepJob`, :class:`GopEncodeJob`,
  :class:`ParseFrameJob`, :class:`Fig4PairJob`) with module-level
  execution recipes and per-process render memoization.
* :mod:`repro.parallel.pool` — :func:`run_jobs`, dispatch over a warm
  set of ``spawn`` workers (started on first use, reused across calls,
  closed after a short idle period) with deterministic per-job
  ``SeedSequence`` seeding, one pipe message per job, progress
  callbacks and an in-process fallback for ``--jobs 1``.  Worker-side
  memos (the render memo, ``rig_frames_cached``) live as long as the
  warm worker.

Results always merge in job order, so a harness's output is
byte-identical for any worker count; the golden tests in
``tests/test_parallel.py`` pin that property.
"""

from repro.parallel.gop import encode_sequence_parallel, split_gops
from repro.parallel.jobs import (
    EncodeJob,
    Fig4PairJob,
    GopEncodeJob,
    JobSpec,
    ParseFrameJob,
    SweepJob,
    borrowed_renders,
    clear_render_cache,
    rendered_source,
)
from repro.parallel.pool import WorkerTraceFailure, derive_job_seeds, execute_job, run_jobs

__all__ = [
    "EncodeJob",
    "Fig4PairJob",
    "GopEncodeJob",
    "JobSpec",
    "ParseFrameJob",
    "SweepJob",
    "WorkerTraceFailure",
    "borrowed_renders",
    "clear_render_cache",
    "derive_job_seeds",
    "encode_sequence_parallel",
    "execute_job",
    "rendered_source",
    "run_jobs",
    "split_gops",
]
