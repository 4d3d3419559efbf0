"""Process pool executing job specs with deterministic seeding.

:func:`run_jobs` is the one entry point: it takes a list of
:class:`repro.parallel.jobs.JobSpec` instances and returns their results
**in job order**, whatever the worker count or completion order — the
experiment harnesses rely on that to keep their reports byte-identical
for any ``--jobs`` value.

Execution model
---------------

* ``workers <= 1`` (or a single job): the in-process fallback — no
  worker, no pickling, no spawn cost.  This is the path CI smoke runs
  and the golden tests compare against.
* ``workers > 1``: a warm set of ``spawn`` workers, one per process
  and reused across calls.  ``spawn`` (rather than ``fork``) keeps
  workers identical across platforms and free of inherited NumPy
  threading state; each worker re-imports the package, so job
  functions must be module-level importables (the job specs are frozen
  dataclasses for exactly this reason) and the calling ``__main__``
  must be re-importable — a script file or ``python -m``, not code
  piped through stdin (a standard ``spawn`` constraint).  Each job is
  one message down the worker's own ``multiprocessing.Pipe`` and one
  reply back: the experiment jobs are whole encodes, parses or frame
  pairs, so the per-job IPC is small against the work.

Worker lifetime
---------------

Workers start on first use and stay up while calls keep coming, so a
run pays spawn and import only once rather than per call.  The set is
keyed by ``(workers, backend)``; a call with another key replaces it,
and a call that finds it busy (another thread, or a nested call from a
progress callback) runs on a set of its own.  A set unused for
:data:`IDLE_CLOSE_SECONDS` is closed: its pipes shut and the workers
exit on EOF, as they do when the parent goes away.  A set goes back
into the cache only when the parent has read the reply to every job it
sent — after a failure the in-flight jobs are drained first — and
never after a worker died.

The idle close, rather than an ``atexit`` hook, is what lets a caller
stop multiprocessing's resource tracker before interpreter exit (as
``perfbench/run.py`` does): the tracker exits only once every process
holding its descriptor has, and ``atexit`` hooks run too late for
that.  Plain pipes register nothing with the tracker, unlike the named
semaphores behind ``multiprocessing`` queues, so closing a set at any
time leaves the tracker clean.

Worker-side memos — the render memo ``_RENDER_CACHE`` and
``rig_frames_cached`` — now live as long as the warm worker, across
``run_jobs`` calls.  Their keys carry every input, so a hit is always
the same render; shared-memory mappings, by contrast, are dropped
after every job (see :func:`_run_worker_job`).

Deterministic seeding
---------------------

Every run derives one ``numpy.random.SeedSequence`` child per job with
:func:`derive_job_seeds` — ``SeedSequence(base_seed).spawn(n)`` — and
reseeds NumPy's global generator from the job's child immediately
before the job runs, in whichever process it landed.  A job's entropy
is therefore a pure function of ``(base_seed, job index)``: results
cannot depend on worker count, job-to-worker placement, or completion
order.  Jobs that want explicit randomness receive a
``numpy.random.Generator`` spawned from the same child.

Shared-memory transport
-----------------------

``use_shm=True`` is how :func:`repro.parallel.encode_sequence_parallel`
ships GOP source planes: each spec is repacked through
``JobSpec.pack_shm`` against a run-scoped
:class:`~repro.transport.FrameArena`, so what crosses the pipe is
:class:`~repro.transport.FrameHandle`\\ s and the workers read the
planes out of shared memory.  Only
:class:`~repro.parallel.jobs.GopEncodeJob` packs anything; every other
spec, and every result, travels by pickle.  The arena closes when the
run ends, on success and failure alike.  Results are bit-identical to
the default ``use_shm=False``; in-process runs (``workers <= 1``) have
no boundary to cross and ignore the flag.
"""

from __future__ import annotations

import atexit
import os
import pickle
import sys
import threading
from contextlib import contextmanager
from multiprocessing import get_context
from multiprocessing.connection import wait
from multiprocessing.reduction import ForkingPickler
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.obs import trace
from repro.transport import FrameArena, detach_all

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel.jobs import JobSpec

#: Progress callback signature: receives one line per job (the job's
#: ``describe()``).  The guarantee: **exactly one call per job**, fired
#: in-process immediately *before* the job runs (live progress,
#: matching the serial harnesses' historical timing) and in parallel
#: mode as the job *completes*, in completion order.  Lines are not
#: deduplicated — two jobs with equal descriptions produce two calls.
ProgressFn = Callable[[str], None]

#: Seconds a warm worker set may sit unused before it is closed (see
#: "Worker lifetime" in the module docstring).
IDLE_CLOSE_SECONDS = 1.0

#: How long closing a worker set waits for each worker to exit on EOF
#: before terminating it.
_CLOSE_TIMEOUT_SECONDS = 5.0


def derive_job_seeds(base_seed: int, count: int) -> list[np.random.SeedSequence]:
    """One independent ``SeedSequence`` child per job.

    ``SeedSequence.spawn`` guarantees non-overlapping streams, and the
    i-th child depends only on ``(base_seed, i)`` — never on how many
    workers execute the list or in which order.

    >>> a = derive_job_seeds(0, 3)
    >>> b = derive_job_seeds(0, 3)
    >>> [x.generate_state(1)[0] for x in a] == [y.generate_state(1)[0] for y in b]
    True
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    return list(np.random.SeedSequence(base_seed).spawn(count)) if count else []


def execute_job(job: "JobSpec", seed_seq: np.random.SeedSequence):
    """Run one job under its seed: the global NumPy RNG is reseeded from
    the job's own ``SeedSequence`` child (so legacy ``np.random.*``
    consumers inside the job are order-independent too) and the job
    receives a dedicated ``Generator``."""
    np.random.seed(seed_seq.generate_state(4))
    return job.run(rng=np.random.default_rng(seed_seq))


class WorkerTraceFailure(RuntimeError):
    """A traced worker's job failure, carrying the worker's partial
    trace events across the pickle boundary.

    Raised by :func:`_run_worker_job` in place of the job's own exception
    when the parent asked for trace collection: ``str()`` is the
    original exception's message (so the parent's ``parallel job
    failed`` report reads identically to the untraced path), and
    :attr:`events` holds everything the worker recorded up to the
    failure — the parent adopts them, which is what makes a failed
    ``--jobs N --trace`` run still produce a partial timeline.
    """

    def __init__(self, message: str, events: list | None = None, cause_type: str = "") -> None:
        super().__init__(message)
        self.events = events or []
        self.cause_type = cause_type

    def __reduce__(self):
        return (type(self), (self.args[0], self.events, self.cause_type))


def _run_worker_job(
    job: "JobSpec",
    seed_seq: np.random.SeedSequence,
    backend: str | None = None,
    collect_trace: bool = False,
):
    """Worker-side executor for one job.

    ``backend`` pins the worker's kernel backend by registry name before
    the job runs — how the parent's backend choice survives the spawn
    boundary (a spawned child would otherwise re-resolve from its own
    environment).

    ``collect_trace`` enables this worker's own tracer (spawned
    children start with it off) and changes the return shape to
    ``(result, events)``: the job runs under a ``"job"`` span, and the
    drained events — stamped with the *worker's* pid — ship back with
    the result for the parent to adopt.  A failing job raises
    :class:`WorkerTraceFailure` so the partial events still cross.

    The worker then drops whatever shared-memory mappings the job
    opened: it outlives the run, and the parent unlinks the run's
    segments when the run ends, so a cached mapping would only pin
    their memory.
    """
    if backend is not None:
        from repro.kernels import set_backend

        set_backend(backend)
    try:
        if not collect_trace:
            return execute_job(job, seed_seq)
        tracer = trace.TRACER
        tracer.enable()
        try:
            with trace.span("job", job=job.describe()):
                result = execute_job(job, seed_seq)
        except Exception as exc:
            tracer.disable()
            raise WorkerTraceFailure(str(exc), tracer.drain(), type(exc).__name__) from exc
        tracer.disable()
        return result, tracer.drain()
    finally:
        detach_all()


@contextmanager
def _exported_package_path():
    """Make sure spawned children can import ``repro``.

    ``spawn`` ships the parent's ``sys.path`` to the child, which covers
    the normal ``PYTHONPATH=src`` invocation; exporting the package root
    through the environment additionally covers parents that grew their
    path at runtime (embedding, notebooks).  The variable is restored on
    exit — spawned children copy the environment at start-up, and the
    caller's environment is not ours to rewrite."""
    import repro

    pkg_root = str(Path(repro.__file__).resolve().parent.parent)
    before = os.environ.get("PYTHONPATH")
    parts = [p for p in (before or "").split(os.pathsep) if p]
    if pkg_root not in parts and pkg_root in sys.path:
        os.environ["PYTHONPATH"] = os.pathsep.join([pkg_root, *parts])
    try:
        yield
    finally:
        if before is None:
            os.environ.pop("PYTHONPATH", None)
        else:
            os.environ["PYTHONPATH"] = before


def _spawn_backend_name() -> str | None:
    """The kernel-backend name to pin in spawned workers.

    The parent's *active* backend is shipped when it carries a registry
    name, so a runner-level ``--backend`` (or ``REPRO_BACKEND``) choice
    survives the spawn boundary without each call site threading it
    through.  Instance backends without a registry name (e.g. the
    ``numba-sim`` test backend) never cross — workers re-resolve from
    their environment.
    """
    from repro.kernels import get_backend

    name = get_backend().name
    return name if name in ("numpy", "numba") else None


def run_jobs(
    jobs: Sequence["JobSpec"],
    workers: int = 1,
    *,
    base_seed: int = 0,
    progress: ProgressFn | None = None,
    use_shm: bool = False,
) -> list:
    """Execute ``jobs`` and return their results in job order.

    Parameters
    ----------
    jobs:
        Job specs (hashable frozen dataclasses with ``run``/``describe``).
    workers:
        Process count; ``<= 1`` runs in-process with zero dispatch
        overhead.  Results are independent of this value by
        construction.
    base_seed:
        Root of the per-job ``SeedSequence`` tree (see
        :func:`derive_job_seeds`).
    progress:
        Optional per-job callable; see :data:`ProgressFn` for the
        exactly-once-per-job guarantee.
    use_shm:
        Pack the specs' payloads into shared memory instead of the
        pickle stream (see the module docstring).  Results are
        bit-identical either way.

    Spawned workers run on the parent's active kernel backend (see
    :func:`_spawn_backend_name`); backends are bit-identical, so this
    never changes results, only worker speed.
    """
    job_list = list(jobs)
    if not job_list:
        return []
    seeds = derive_job_seeds(base_seed, len(job_list))
    workers = max(1, int(workers))
    with trace.span("run_jobs", jobs=len(job_list), workers=workers, use_shm=use_shm):
        if workers == 1 or len(job_list) == 1:
            # Per-job reseeding must happen here too (or jobs consuming the
            # global RNG would differ between worker counts), but the
            # caller's global RNG stream is not ours to consume — save and
            # restore it so ``run_jobs`` is side-effect-free in-process,
            # exactly like the parallel path (which reseeds only workers).
            rng_state = np.random.get_state()
            try:
                results = []
                for job, seed_seq in zip(job_list, seeds):
                    if progress is not None:
                        progress(job.describe())
                    with trace.span("job", job=job.describe()):
                        results.append(execute_job(job, seed_seq))
                return results
            finally:
                np.random.set_state(rng_state)
        backend = _spawn_backend_name()
        # Workers are fresh spawned processes whose tracer starts
        # disabled; ship the parent's tracing state so their spans come
        # back with the results (see _run_worker_job).
        collect_trace = trace.TRACER.enabled
        if not use_shm:
            return _run_parallel(job_list, seeds, workers, progress, backend, collect_trace)
        # The arena must outlive every worker read of a packed spec, i.e.
        # the whole parallel run; its exit unlinks every segment.
        with FrameArena(name_prefix="repro-jobs") as arena:
            packed = [job.pack_shm(arena) for job in job_list]
            return _run_parallel(packed, seeds, workers, progress, backend, collect_trace)


class _WorkerSet:
    """Spawned workers, each behind its own duplex pipe, started on
    demand up to the run's need (see "Worker lifetime" in the module
    docstring)."""

    def __init__(self, key: tuple[int, str | None]) -> None:
        self.key = key
        self.conns: list = []
        self.procs: list = []
        #: A worker died or a reply may still be in flight: never reuse.
        self.broken = False
        self.idle_timer: threading.Timer | None = None

    def grow(self, count: int) -> None:
        ctx = get_context("spawn")
        with _exported_package_path():
            while len(self.conns) < count:
                parent_end, child_end = ctx.Pipe()
                proc = ctx.Process(target=_worker_loop, args=(child_end,))
                proc.start()
                child_end.close()
                self.conns.append(parent_end)
                self.procs.append(proc)

    def exit_code(self, conn) -> int | None:
        proc = self.procs[self.conns.index(conn)]
        proc.join(_CLOSE_TIMEOUT_SECONDS)
        return proc.exitcode

    def close(self, kill: bool = False) -> None:
        """Shut every pipe and reap the workers; ``kill`` stops workers
        that may still be mid-job instead of letting them finish."""
        for conn in self.conns:
            conn.close()
        for proc in self.procs:
            if kill:
                proc.terminate()
            proc.join(_CLOSE_TIMEOUT_SECONDS)
            if proc.exitcode is None:  # pragma: no cover - a wedged worker
                proc.terminate()
                proc.join()


_cache_lock = threading.Lock()
_cached: _WorkerSet | None = None


def _checkout(key: tuple[int, str | None]) -> _WorkerSet:
    """Take the cached worker set when it matches ``key`` (closing it
    when it does not); a fresh, still empty set otherwise."""
    global _cached
    with _cache_lock:
        pool, _cached = _cached, None
    if pool is not None:
        pool.idle_timer.cancel()
        if pool.key == key:
            return pool
        pool.close()
    return _WorkerSet(key)


def _checkin(pool: _WorkerSet) -> None:
    """Cache ``pool`` with a fresh idle timer, or close it when it is
    broken or another set already took the slot."""
    global _cached
    if not pool.broken:
        with _cache_lock:
            if _cached is None:
                _cached = pool
                pool.idle_timer = threading.Timer(IDLE_CLOSE_SECONDS, _close_cached, (pool,))
                pool.idle_timer.daemon = True
                pool.idle_timer.start()
                return
    pool.close(kill=pool.broken)


def _close_cached(expected: _WorkerSet | None = None) -> None:
    """Close the cached worker set: the idle timer's action (a no-op
    unless ``expected`` is still the cached set) and, with no argument,
    the interpreter-exit hook."""
    global _cached
    with _cache_lock:
        pool = _cached
        if pool is None or expected not in (None, pool):
            return
        _cached = None
    pool.idle_timer.cancel()
    pool.close()


# Workers are not daemonic (a job may start processes of its own), so
# close a still-warm set before multiprocessing joins its children.
atexit.register(_close_cached)


def _worker_loop(conn) -> None:
    """A warm worker's body: run each job that arrives on ``conn`` and
    send back ``(True, result)`` or ``(False, exception)``, until the
    parent closes its end or goes away."""
    while True:
        try:
            task = conn.recv()
        except EOFError:
            return
        except Exception as exc:  # a job that does not unpickle in this process
            conn.send_bytes(_reply_bytes((False, exc)))
            continue
        try:
            reply = (True, _run_worker_job(*task))
        except Exception as exc:
            reply = (False, exc)
        try:
            conn.send_bytes(_reply_bytes(reply))
        except OSError:  # the parent is gone
            return


def _reply_bytes(reply: tuple) -> bytes:
    """Pickle a worker reply so the parent can always rebuild it.

    A job exception that does not survive a pickle round trip (unpicklable
    state, or an ``__init__`` its ``args`` cannot satisfy) is replaced by
    a ``RuntimeError`` with the same message, and a result that does not
    pickle becomes a failure reply — the parent then still reports
    ``parallel job failed (...)`` instead of losing the worker."""
    ok, payload = reply
    try:
        data = ForkingPickler.dumps(reply)
        if not ok:
            pickle.loads(data)
        return data
    except Exception as exc:
        if ok:
            return ForkingPickler.dumps((False, RuntimeError(f"result could not be pickled: {exc}")))
        return ForkingPickler.dumps((False, RuntimeError(str(payload))))


def _run_parallel(
    job_list: list,
    seeds: list,
    workers: int,
    progress: ProgressFn | None,
    backend: str | None,
    collect_trace: bool,
) -> list:
    pool = _checkout((workers, backend))
    try:
        pool.grow(min(workers, len(job_list)))
        return _dispatch(pool, job_list, seeds, progress, backend, collect_trace)
    finally:
        _checkin(pool)


def _dispatch(
    pool: _WorkerSet,
    job_list: list,
    seeds: list,
    progress: ProgressFn | None,
    backend: str | None,
    collect_trace: bool,
) -> list:
    """Feed ``job_list`` through ``pool``'s workers, one job per idle
    worker, and collect results in job order.

    Fail-fast: the first failure stops dispatch; the jobs already in
    flight are drained (their replies read) before the error
    propagates, which is also what keeps ``pool`` reusable."""
    results: list = [None] * len(job_list)
    idle = pool.conns[: len(job_list)]
    busy: dict = {}
    next_index = 0
    try:
        while next_index < len(job_list) or busy:
            # Before waiting, give every idle worker a job: any run of
            # two or more jobs lands on at least two workers.
            while idle and next_index < len(job_list):
                conn = idle.pop()
                job = job_list[next_index]
                try:
                    conn.send((job, seeds[next_index], backend, collect_trace))
                except Exception as exc:  # an unpicklable spec, or the worker is gone
                    pool.broken |= isinstance(exc, OSError)
                    raise _job_failed(job, exc) from exc
                busy[conn] = next_index
                next_index += 1
            for conn in wait(list(busy)):
                index = busy.pop(conn)
                ok, payload = _receive(pool, conn)
                if not ok:
                    if isinstance(payload, WorkerTraceFailure) and payload.events:
                        # The failing worker's partial timeline still
                        # merges — a crashed --jobs N --trace run stays
                        # diagnosable.
                        trace.TRACER.adopt(payload.events)
                    raise _job_failed(job_list[index], payload) from payload
                idle.append(conn)
                if collect_trace:
                    payload, worker_events = payload
                    trace.TRACER.adopt(worker_events)
                results[index] = payload
                if progress is not None:
                    progress(job_list[index].describe())
    except Exception:
        _drain(pool, busy)
        raise
    except BaseException:  # e.g. KeyboardInterrupt: do not wait for the workers
        pool.broken = True
        raise
    return results


def _job_failed(job: "JobSpec", cause) -> RuntimeError:
    return RuntimeError(f"parallel job failed ({job.describe()}): {cause}")


def _receive(pool: _WorkerSet, conn) -> tuple:
    """One reply from ``conn``; a dead worker reads as a failure."""
    try:
        return conn.recv()
    except (EOFError, OSError):
        pool.broken = True
        code = pool.exit_code(conn)
        return False, RuntimeError(f"worker process exited unexpectedly (exit code {code})")


def _drain(pool: _WorkerSet, busy: dict) -> None:
    """Read the reply of every job still in flight, so no stale reply
    is left for a later run."""
    while busy:
        for conn in wait(list(busy)):
            del busy[conn]
            _receive(pool, conn)
