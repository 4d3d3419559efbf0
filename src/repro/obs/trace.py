"""Structured tracing: spans, phase accumulators, Chrome-trace events.

The tracer answers "where did this frame's milliseconds go?" across
every layer of the stack — encoder sub-phases, decode parse vs
reconstruct, worker processes, the runner's stages — by recording
**Chrome trace events**: plain dicts in the
`trace-event format <https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
that ``chrome://tracing`` and Perfetto load directly (see
:mod:`repro.obs.export`).

Design constraints, in order:

1. **Zero interference** — tracing never touches codec data, so traced
   and untraced runs emit byte-identical bitstreams (golden-pinned by
   ``tests/test_obs.py``).
2. **Near-zero disabled cost** — the hot seams call the *module-level*
   :func:`span` / :func:`phases` / :func:`instant` functions, which
   check one attribute (``TRACER.enabled``) and return a shared
   singleton no-op when tracing is off.  No allocation, no timestamp,
   no branch inside the codec loops;
   ``benchmarks/test_bench_obs.py`` gates the disabled-mode overhead
   under 2%.
3. **Mergeable across processes** — events are picklable dicts stamped
   with the recording process's pid and thread id, so worker-side
   events ship back through :func:`repro.parallel.run_jobs` and
   :meth:`Tracer.adopt` splices them into the parent's timeline.
   ``time.perf_counter_ns`` reads ``CLOCK_MONOTONIC`` on Linux, which
   is system-wide — parent and worker timestamps share one clock.

Two recording shapes:

* ``with span("encode.frame", frame=3):`` — lexical phases.  The span
  object accepts late attributes (:meth:`Span.set`) and exposes
  :attr:`Span.duration_s` after exit, which is what lets ``runner all``
  print its wall-clock summary straight off the spans.
* ``ph = phases(); with ph("transform"): ...; ph.emit()`` — *aggregated*
  sub-phases for per-macroblock loops: each ``with`` adds to a per-name
  duration bucket, and ``emit`` lays the buckets out as consecutive
  events starting at the first measurement.  The per-name **sums** are
  exact; the layout is synthetic (the real intervals interleave per
  macroblock, which no trace viewer renders legibly).
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any

__all__ = [
    "Span",
    "Tracer",
    "TRACER",
    "enabled",
    "instant",
    "phases",
    "span",
]


class _NoopSpan:
    """Shared do-nothing span: what the module-level helpers return
    while tracing is disabled.  One singleton, never allocated per
    call."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass

    @property
    def duration_s(self) -> float:
        return 0.0


_NOOP_SPAN = _NoopSpan()


class _NoopPhases:
    """Shared do-nothing phase accumulator (disabled-mode twin of
    :class:`PhaseSet`)."""

    __slots__ = ()

    def __call__(self, name: str) -> _NoopSpan:
        return _NOOP_SPAN

    def emit(self, **attrs) -> None:
        pass


_NOOP_PHASES = _NoopPhases()


class Span:
    """One live interval; records a complete ("X") event on exit."""

    __slots__ = ("_tracer", "name", "args", "_start", "_duration_ns")

    def __init__(self, tracer: "Tracer", name: str, args: dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.args = args
        self._start = 0
        self._duration_ns = 0

    def set(self, **attrs) -> None:
        """Attach attributes decided after the span opened (frame type,
        emitted bits, ...)."""
        self.args.update(attrs)

    def __enter__(self) -> "Span":
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> bool:
        stop = time.perf_counter_ns()
        self._duration_ns = stop - self._start
        self._tracer._complete(self.name, self._start, stop, self.args)
        return False

    @property
    def duration_s(self) -> float:
        """Elapsed seconds (valid after exit) — the single timing
        source ``runner all``'s summary reads."""
        return self._duration_ns / 1e9


class PhaseSet:
    """Aggregating sub-phase timer for per-macroblock loops.

    ``with ph("transform"):`` adds the block's elapsed time to the
    ``"transform"`` bucket; :meth:`emit` turns the buckets into
    consecutive complete events anchored at the first measurement, so
    the per-phase totals appear nested under the enclosing frame span.
    """

    __slots__ = ("_tracer", "_totals", "_anchor")

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer
        self._totals: dict[str, int] = {}
        self._anchor: int | None = None

    def __call__(self, name: str) -> "_Phase":
        return _Phase(self, name)

    def emit(self, **attrs) -> None:
        """Emit one event per bucket, laid out back to back from the
        first measurement's timestamp.  No-op when nothing was timed."""
        if self._anchor is None:
            return
        cursor = self._anchor
        for name, total in self._totals.items():
            self._tracer._complete(name, cursor, cursor + total, dict(attrs))
            cursor += total
        self._totals.clear()
        self._anchor = None


class _Phase:
    __slots__ = ("_set", "_name", "_start")

    def __init__(self, phase_set: PhaseSet, name: str) -> None:
        self._set = phase_set
        self._name = name
        self._start = 0

    def __enter__(self) -> "_Phase":
        self._start = time.perf_counter_ns()
        if self._set._anchor is None:
            self._set._anchor = self._start
        return self

    def __exit__(self, *exc_info) -> bool:
        elapsed = time.perf_counter_ns() - self._start
        totals = self._set._totals
        totals[self._name] = totals.get(self._name, 0) + elapsed
        return False


class Tracer:
    """Event collector: a flat list of Chrome trace-event dicts.

    ``enabled`` is the one attribute every instrumented seam checks;
    everything else only runs while tracing is on.  Event appends are
    GIL-atomic, so any thread of this process (the pool's idle-close
    timer, a caller's own threads) records into the same tracer without
    locking; cross-*process* events arrive via :meth:`adopt`.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._events: list[dict[str, Any]] = []

    # -- recording -------------------------------------------------------

    def span(self, name: str, **attrs) -> "Span | _NoopSpan":
        if not self.enabled:
            return _NOOP_SPAN
        return Span(self, name, attrs)

    def instant(self, name: str, **attrs) -> None:
        """A zero-duration marker (backend selection, arena placement)."""
        if not self.enabled:
            return
        self._events.append(
            {
                "name": name,
                "ph": "i",
                "ts": time.perf_counter_ns() / 1000.0,
                "pid": os.getpid(),
                "tid": threading.get_native_id(),
                "s": "t",
                "args": attrs,
            }
        )

    def phases(self) -> "PhaseSet | _NoopPhases":
        if not self.enabled:
            return _NOOP_PHASES
        return PhaseSet(self)

    def _complete(self, name: str, start_ns: int, stop_ns: int, args: dict) -> None:
        self._events.append(
            {
                "name": name,
                "ph": "X",
                "ts": start_ns / 1000.0,
                "dur": (stop_ns - start_ns) / 1000.0,
                "pid": os.getpid(),
                "tid": threading.get_native_id(),
                "args": args,
            }
        )

    # -- lifecycle -------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        """Stop recording; already-collected events stay drainable."""
        self.enabled = False

    def adopt(self, events) -> None:
        """Splice foreign events (a worker's drained list) into this
        timeline.  They keep their own pid/tid stamps — that is what
        makes the merged trace show per-process lanes."""
        self._events.extend(events)

    def drain(self) -> list[dict[str, Any]]:
        """Return all collected events and clear the buffer."""
        events, self._events = self._events, []
        return events

    @property
    def events(self) -> list[dict[str, Any]]:
        """The live event list (not a copy) — prefer :meth:`drain`."""
        return self._events


#: The process-global tracer every seam records into.  Workers get
#: their own (fresh process ⇒ fresh module state); the pool merges.
TRACER = Tracer()


def enabled() -> bool:
    """Whether the global tracer is recording."""
    return TRACER.enabled


def span(name: str, **attrs):
    """Module-level span against :data:`TRACER` — the one-attribute-load
    fast path hot seams call."""
    tracer = TRACER
    if not tracer.enabled:
        return _NOOP_SPAN
    return Span(tracer, name, attrs)


def instant(name: str, **attrs) -> None:
    TRACER.instant(name, **attrs)


def phases():
    tracer = TRACER
    if not tracer.enabled:
        return _NOOP_PHASES
    return PhaseSet(tracer)
