"""Pipelined symbol-parse stage for the streaming decoder.

The v2 decode splits cleanly into two halves (PR 4): *parse* walks a
payload's symbols through the LUT reader into a
:class:`~repro.codec.decoder.ParsedPicture`, and *reconstruct* turns
parsed symbols into pixels against the running reference.  Parse has no
cross-frame state; reconstruction is inherently serial.  This module
runs the parse half on a dedicated worker so the decoder reconstructs
frame *n* while frame *n+1* parses — a two-stage pipeline joined by a
bounded queue.

:class:`ParseStage` is that worker plus its queues:

* ``kind="thread"`` — a daemon thread in-process.  Payloads and parsed
  pictures move by reference; nothing is copied or pickled.
* ``kind="process"`` — a spawned child process.  Compressed payloads
  travel down by pickle (small), parsed symbol arrays travel back as
  shared-memory handles (:func:`repro.transport.export` in the child,
  :func:`repro.transport.materialize` + unlink here) — the arrays are
  the bulk, so the return trip is zero-copy.

Ordering and failure semantics both fall out of having exactly one
worker: results come back in submission order, and a payload that fails
to parse ships its exception in-band (the worker then stops), so the
decoder raises the *same* error at the same frame boundary as the
serial path — just possibly on a later ``feed``/``frames`` call, since
the parse happens asynchronously.

The out-queue is bounded at ``depth`` results, which is what bounds
parse-ahead: a worker that gets far in front of reconstruction blocks
on the queue, not on memory.
"""

from __future__ import annotations

import queue as queue_mod
import threading
from typing import Any

from repro.codec.decoder import parse_payload
from repro.obs import metrics, trace

#: Result tags on the out-queue.
_OK = "ok"
_ERR = "err"

_MET_QUEUE_DEPTH = metrics.gauge("pipeline.queue_depth")
_MET_PAYLOADS = metrics.counter("pipeline.payloads")
_MET_BYTES_COPIED = metrics.counter("pipeline.bytes_copied")
_MET_HANDLES = metrics.counter("pipeline.handles_passed")


def _parse_loop(in_q, out_q, process=False, backend=None, collect_trace=False) -> None:
    """Worker body (module-level for ``spawn``): parse until the
    ``None`` sentinel or the first failure (the error ships in-band,
    then the stage is dead).  Out-queue items are ``(tag, seq, value,
    events)``.

    Thread mode records straight into the process tracer (appends are
    GIL-atomic), so its events slot is always ``None``.  In a spawned
    ``process`` child, parsed pictures leave as one-shot shared-memory
    exports the parent materializes and unlinks; ``backend`` is the
    parent's kernel-backend name (spawned children re-resolve
    ``REPRO_BACKEND`` from scratch, so an in-process ``set_backend``
    choice must travel explicitly), and ``collect_trace`` turns on the
    child's tracer and ships each payload's drained events (stamped
    with the child's pid), errors included — the parent adopts them in
    :meth:`ParseStage.poll`."""
    if process:
        from repro.transport import export
    if backend is not None:
        from repro.kernels import set_backend

        set_backend(backend)
    tracer = trace.TRACER
    if collect_trace:
        tracer.enable()
    while True:
        item = in_q.get()
        if item is None:
            break
        seq, payload = item
        try:
            parsed = parse_payload(payload)
        except Exception as exc:
            out_q.put((_ERR, seq, exc, tracer.drain() if collect_trace else None))
            break
        if process:
            parsed = export(parsed, name_prefix="repro-pipe")
        out_q.put((_OK, seq, parsed, tracer.drain() if collect_trace else None))


def normalize_pipeline(pipeline) -> str | None:
    """Map the user-facing ``pipeline`` flag to a stage kind.

    ``False``/``None`` → serial (no stage), ``True`` → ``"thread"``
    (in-process, no spawn cost), or the explicit strings ``"thread"`` /
    ``"process"``.
    """
    if pipeline is None or pipeline is False:
        return None
    if pipeline is True:
        return "thread"
    if pipeline in ("thread", "process"):
        return pipeline
    raise ValueError(
        f"pipeline must be False, True, 'thread' or 'process', got {pipeline!r}"
    )


class ParseStage:
    """One parse worker and its queues: FIFO in, FIFO out.

    Parameters
    ----------
    kind:
        ``"thread"`` or ``"process"`` (see the module docstring).
    depth:
        Out-queue bound — how many parsed-but-unreconstructed pictures
        may exist before the worker blocks (the parse-ahead budget).

    Accounting: :attr:`bytes_copied` counts payload bytes that crossed
    a process boundary by value (zero in thread mode); \
    :attr:`handles_passed` counts shared-memory handles received back
    (zero in thread mode, where results move by reference).
    """

    def __init__(self, kind: str = "thread", depth: int = 3) -> None:
        if kind not in ("thread", "process"):
            raise ValueError(f"kind must be 'thread' or 'process', got {kind!r}")
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        self.kind = kind
        self.bytes_copied = 0
        self.handles_passed = 0
        self._seq = 0
        self._received = 0
        self._closed = False
        if kind == "thread":
            self._in: Any = queue_mod.SimpleQueue()
            self._out: Any = queue_mod.Queue(maxsize=depth)
            self._worker: Any = threading.Thread(
                target=_parse_loop, args=(self._in, self._out), daemon=True
            )
        else:
            from multiprocessing import get_context

            # Same spawn hygiene as the job pool: the child re-imports
            # the package, so make sure it can.
            from repro.parallel.pool import _exported_package_path, _spawn_backend_name

            ctx = get_context("spawn")
            self._in = ctx.Queue()
            self._out = ctx.Queue(maxsize=depth)
            self._worker = ctx.Process(
                target=_parse_loop,
                args=(self._in, self._out, True, _spawn_backend_name(None), trace.TRACER.enabled),
                daemon=True,
            )
            with _exported_package_path():
                self._worker.start()
            return
        self._worker.start()

    # -- introspection ---------------------------------------------------

    @property
    def pending(self) -> int:
        """Payloads submitted but not yet collected."""
        return self._seq - self._received

    # -- the pipe --------------------------------------------------------

    def submit(self, payload: bytes) -> None:
        """Queue one payload for parsing (never blocks — the in-queue
        is unbounded; backpressure is the decoder's demand signal)."""
        if self._closed:
            raise ValueError("submit() on a closed ParseStage")
        if self.kind == "process":
            self.bytes_copied += len(payload)
            _MET_BYTES_COPIED.inc(len(payload))
        self._in.put((self._seq, payload))
        self._seq += 1
        _MET_PAYLOADS.inc()
        _MET_QUEUE_DEPTH.set(self.pending)

    def poll(self, block: bool = False, timeout: float = 0.1):
        """Collect the next result, or ``None`` when nothing is ready.

        Returns ``("ok", seq, ParsedPicture)`` or ``("err", seq,
        exception)``, in submission order.  ``block=True`` waits until a
        result lands (raising if the worker died without producing
        one); process-mode results are materialized to owned arrays and
        their segments unlinked before returning.
        """
        while True:
            try:
                item = self._out.get(block=block, timeout=timeout if block else None)
                break
            except queue_mod.Empty:
                if not block:
                    return None
                if not self._worker.is_alive():
                    raise RuntimeError(
                        "parse stage worker died without delivering a result"
                    ) from None
        tag, seq, value, events = item
        self._received += 1
        _MET_QUEUE_DEPTH.set(self.pending)
        if events:
            trace.TRACER.adopt(events)
        if tag == _OK and self.kind == "process":
            from repro.transport import handle_count, materialize

            handles = handle_count(value)
            self.handles_passed += handles
            _MET_HANDLES.inc(handles)
            value = materialize(value, unlink=True)
        return tag, seq, value

    def close(self) -> None:
        """Stop the worker and discard anything still in flight.

        Safe at any point: the sentinel queues behind unparsed
        payloads, and the out-queue is drained while joining so the
        worker's puts never deadlock the join.  Discarded process-mode
        results are materialized-and-unlinked, so no ``/dev/shm``
        segment survives an abandoned pipeline.
        """
        if self._closed:
            return
        self._closed = True
        self._in.put(None)
        while True:
            self._discard_ready()
            self._worker.join(timeout=0.05)
            if not self._worker.is_alive():
                break
        self._discard_ready()
        if self.kind == "process":
            self._in.close()
            self._out.close()

    def _discard_ready(self) -> None:
        while True:
            try:
                tag, _seq, value, events = self._out.get_nowait()
            except queue_mod.Empty:
                return
            self._received += 1
            if events:
                trace.TRACER.adopt(events)
            if tag == _OK and self.kind == "process":
                from repro.transport import materialize

                materialize(value, unlink=True)


__all__ = ["ParseStage", "normalize_pipeline"]
