"""Metrics registry: named counters, gauges and histograms.

The always-on half of the observability layer (:mod:`repro.obs`):
where the tracer answers *when*, the registry answers *how much* —
frames and bytes in and out, bits per frame split by syntax element,
SAD evaluations, cache hits, arena bytes in flight and backpressure
stalls.  Instruments are plain Python attribute adds
at call sites that fire at most a few times per frame, so the registry
stays on unconditionally; truly per-symbol work is never instrumented
(that is the tracer's <2% disabled-overhead budget, and the registry
holds itself to the same bar by construction).

Instruments are **get-or-create by name** and identity-stable:
:meth:`MetricsRegistry.reset` zeroes values in place rather than
replacing objects, so call sites may cache an instrument across
resets.  Each process has its own :data:`REGISTRY` (a spawned worker
counts into its own); per-run deltas for reports should bracket the
run with :meth:`~MetricsRegistry.snapshot` calls or a fresh private
registry.
"""

from __future__ import annotations

import json
from typing import Any, Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
]


class Counter:
    """Monotonic count (frames encoded, bits emitted, cache hits)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def snapshot(self):
        return self.value


class Gauge:
    """Instant level (arena bytes in flight, queue depth)."""

    __slots__ = ("name", "value", "peak")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self.peak = 0

    def set(self, value: int | float) -> None:
        self.value = value
        if value > self.peak:
            self.peak = value

    def add(self, delta: int | float) -> None:
        self.set(self.value + delta)

    def reset(self) -> None:
        self.value = 0
        self.peak = 0

    def snapshot(self):
        return {"value": self.value, "peak": self.peak}


class Histogram:
    """Per-event value series (bits per frame, span durations).

    Keeps the raw observations — the scales here are frames, not
    packets, and the per-frame history *is* the product (it feeds
    ``encode.bits_per_frame`` and the rate-control ledgers to come).
    """

    __slots__ = ("name", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.values: list[float] = []

    def observe(self, value: int | float) -> None:
        self.values.append(value)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return float(sum(self.values))

    @property
    def mean(self) -> float:
        if not self.values:
            raise ValueError(f"histogram {self.name!r} has no observations")
        return self.total / len(self.values)

    def reset(self) -> None:
        self.values.clear()

    def snapshot(self):
        if not self.values:
            return {"count": 0, "total": 0.0, "values": []}
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": min(self.values),
            "max": max(self.values),
            "values": list(self.values),
        }


class MetricsRegistry:
    """Named instruments, one namespace per registry."""

    def __init__(self) -> None:
        self._instruments: dict[str, Any] = {}

    def _get(self, name: str, kind: type):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = kind(name)
        elif type(instrument) is not kind:
            raise TypeError(
                f"metric {name!r} is a {type(instrument).__name__}, "
                f"requested as {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def __iter__(self) -> Iterator:
        return iter(self._instruments.values())

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def reset(self) -> None:
        """Zero every instrument in place (identities survive, so
        cached references keep counting)."""
        for instrument in self._instruments.values():
            instrument.reset()

    def snapshot(self) -> dict[str, Any]:
        """A JSON-ready ``{name: value}`` mapping, sorted by name."""
        return {
            name: self._instruments[name].snapshot()
            for name in sorted(self._instruments)
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


#: The process-global registry the instrumented seams count into.
REGISTRY = MetricsRegistry()


def counter(name: str) -> Counter:
    return REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    return REGISTRY.gauge(name)


def histogram(name: str) -> Histogram:
    return REGISTRY.histogram(name)
