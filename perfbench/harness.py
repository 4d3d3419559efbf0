"""One benchmark run: set up, verify, measure, report.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
Their times are reference-host times: the shared machine this benchmark
was sized on switches between speed states about 1.6x apart every few
seconds to minutes, so each set-up and pass is bracketed by a fixed
calibration probe and its wall time is scaled by the probe's reference
duration over its measured one (:func:`host_scale`).  The text report
prints the scales, so wall-clock figures can be recovered.
``--trace 1`` alternates untraced and traced passes for the same time
budget (alternating cancels machine drift between the two), wraps every
codec call of the traced passes — setup and verification included — in
a :class:`~perfbench.layers.LayerClock`, turns on the ``repro.obs``
tracer so pool workers ship their ``job`` and ``decode.parse`` spans
back, and reports the per-layer metrics plus the tracing overhead.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
from time import perf_counter

import numpy as np

from repro.kernels import get_backend
from repro.kernels.registry import numba_available
from repro.obs import metrics as obs_metrics, trace

from perfbench.catalog import END_TO_END, PER_LAYER
from perfbench.layers import LayerClock, worker_spans
from perfbench.workloads import WORKLOADS, Tally, quality

#: Setups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Percentiles a ``_tail`` metric may report, highest first.  Each
#: workload caps the ladder (``TAIL_CAP``) at a percentile its slowest
#: expected run still fills, so the reported percentile does not flip
#: between runs as the machine's speed (and with it the sample count of
#: a fixed-length run) drifts.  Where a call's frames share one
#: amortized sample, the cap also keeps the tail a rank among several
#: calls rather than the single slowest one.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
#: Samples a tail percentile needs beyond it.
TAIL_MIN_BEYOND = 10
#: Largest share of the traced calls' wall time the wrapped layers may
#: leave unattributed before the traced run reports a failed check.
UNATTRIBUTED_TOLERANCE = 0.05
#: Reference duration of one calibration probe: its typical time on the
#: 2-core container the bounds were sized on, in that host's fast state.
PROBE_REF_S = 2.15e-3
_PROBE_PLANE = np.arange(144 * 176, dtype=np.int64).reshape(144, 176) % 251
#: Encoder bit-ledger counters (``repro.obs`` registry), per frame.
BIT_COUNTERS = ("encode.bits.headers", "encode.bits.mode", "encode.bits.mv",
                "encode.bits.coefficients")


def probe_seconds() -> float:
    """Fastest of three runs of a fixed mix of interpreter and small-array
    NumPy work, the two kinds of work the codec does."""
    best = math.inf
    for _ in range(3):
        start = perf_counter()
        total = 0
        for i in range(30000):
            total += i & 7
        for _ in range(20):
            np.abs(_PROBE_PLANE[:, 1:] - _PROBE_PLANE[:, :-1]).sum()
        best = min(best, perf_counter() - start)
    return best


def host_scale(before: float, after: float) -> float:
    """Factor turning wall time measured between two probes into
    reference-host time."""
    return PROBE_REF_S / ((before + after) / 2.0)


def tail_percentile(samples: int, cap: float = TAIL_LADDER[0]) -> float:
    """The highest ladder percentile up to ``cap`` with at least ten
    samples beyond it."""
    for p in TAIL_LADDER:
        if p <= cap and samples * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND:
            return p
    return TAIL_LADDER[-1]


def block_tail(passes: list[list[float]], p: float) -> tuple[float, int]:
    """The ``p``-th percentile as the median over blocks of whole,
    consecutive passes, each block holding at least ten samples beyond
    ``p``; returns ``(value, blocks)``.  A burst of machine noise then
    moves one block's percentile, not the reported tail, and every block
    holds the same mix of frames."""
    need = math.ceil(TAIL_MIN_BEYOND / (1.0 - p / 100.0))
    blocks: list[list[float]] = [[]]
    for samples in passes:
        if len(blocks[-1]) >= need:
            blocks.append([])
        blocks[-1].extend(samples)
    if len(blocks) > 1 and len(blocks[-1]) < need:
        blocks[-2].extend(blocks.pop())
    return statistics.median(float(np.percentile(b, p)) for b in blocks), len(blocks)


def provenance() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "backend": get_backend().name,
        "numba": numba_available(),
    }


class TracedSegment:
    """Context that installs the layer wrappers and the ``repro.obs``
    tracer, and folds the encoder's bit-ledger counters and the worker
    spans of what ran inside into running totals."""

    def __init__(self, clock: LayerClock) -> None:
        self.clock = clock
        self.bits = dict.fromkeys(BIT_COUNTERS, 0)
        self.worker = {"ms": {}, "count": {}}

    def __enter__(self):
        self._before = {name: obs_metrics.counter(name).value for name in BIT_COUNTERS}
        trace.TRACER.drain()
        trace.TRACER.enable()
        self.clock.install()
        return self

    def __exit__(self, *exc_info) -> bool:
        self.clock.uninstall()
        trace.TRACER.disable()
        for name in BIT_COUNTERS:
            self.bits[name] += obs_metrics.counter(name).value - self._before[name]
        spans = worker_spans(trace.TRACER.drain(), os.getpid())
        for kind in ("ms", "count"):
            for name, value in spans[kind].items():
                self.worker[kind][name] = self.worker[kind].get(name, 0) + value
        return False


def run(name: str, seed: int, seconds: float, traced: bool, tiny: bool = False):
    """Run one workload; returns ``(lines, result)`` where ``lines`` is
    the human-readable report and ``result`` the JSON summary."""
    workload = WORKLOADS[name](seed, tiny=tiny)
    plain = Tally()
    segment = TracedSegment(LayerClock())
    traced_tally = Tally()

    setup_times, scales = [], []
    for _ in range(SETUP_REPEATS):
        before = probe_seconds()
        start = perf_counter()
        if traced:
            with segment:
                workload.setup(traced_tally)
        else:
            workload.setup(plain)
        elapsed = perf_counter() - start
        scales.append(host_scale(before, probe_seconds()))
        plain.end_pass(scales[-1])
        setup_times.append(elapsed * scales[-1])
    if traced:
        with segment:
            workload.verify(traced_tally)
    else:
        workload.verify(plain)
    # Warm-up: first-call costs (allocator growth, lazy tables) stay out
    # of the timed passes; its checks still count.
    warm = Tally()
    workload.run_pass(warm)

    plain_walls, traced_walls = [], []
    deadline = perf_counter() + seconds
    while True:
        before = probe_seconds()
        start = perf_counter()
        workload.run_pass(plain)
        plain_walls.append(perf_counter() - start)
        scales.append(host_scale(before, probe_seconds()))
        plain.end_pass(scales[-1])
        if traced:
            start = perf_counter()
            with segment:
                workload.run_pass(traced_tally)
            traced_walls.append(perf_counter() - start)
        if perf_counter() >= deadline:
            break

    attempted = plain.attempted + traced_tally.attempted + warm.attempted
    failed = plain.failed + traced_tally.failed + warm.failed
    failures = plain.failures + traced_tally.failures + warm.failures
    machine = provenance()
    omitted = [] if machine["numba"] else ["numba-backend rows (numba is not importable)"]
    if machine["nproc"] <= 2:
        omitted.append(f"rows with more than 2 workers (nproc={machine['nproc']})")
    lines = [f"workload {name}: {workload.why}",
             "provenance: " + ", ".join(f"{k}={v}" for k, v in machine.items()),
             f"host scale (reference time / wall time) over {len(scales)} set-ups and passes: "
             f"median {statistics.median(scales):.3f}, min {min(scales):.3f}, "
             f"max {max(scales):.3f}"]
    if omitted:
        lines.append("omitted, not emitted as placeholder floors: " + "; ".join(omitted))
    if traced:
        metrics, layer_lines, ok = layer_metrics(workload, traced_tally, segment,
                                                 plain_walls, traced_walls, plain)
        lines += layer_lines
        if not ok:
            attempted += 1
            failed += 1
            failures.append("layer accounting outside its tolerance")
        catalog = PER_LAYER
    else:
        metrics, e2e_lines = end_to_end_metrics(workload, plain, setup_times)
        lines += e2e_lines
        catalog = END_TO_END
    lines.append(f"failed_frac: {failed / max(attempted, 1):.6f} ({failed} of {attempted} operations)")
    lines += [f"FAILED: {what}" for what in failures]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m.name: {"value": metrics[m.name], "unit": m.unit} for m in catalog},
    }
    lines += [f"  {m.name:36s} {metrics[m.name]:14.6f} {m.unit:12s} ({m.better} is better)"
              for m in catalog]
    return lines, result


def end_to_end_metrics(workload, tally: Tally, setup_times):
    values = {
        "encode_fps": statistics.median(tally.encode_pass_fps),
        "decode_fps": statistics.median(tally.decode_pass_fps),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **quality(workload.records, workload.fps),
    }
    lines = []
    for side, passes in (("encode", tally.encode_ms), ("decode", tally.decode_ms)):
        samples = [x for pass_samples in passes for x in pass_samples]
        p = tail_percentile(len(samples), workload.TAIL_CAP)
        values[f"{side}_frame_ms_p50"] = float(np.percentile(samples, 50))
        values[f"{side}_frame_ms_tail"], blocks = block_tail(passes, p)
        lines.append(f"{side}_frame_ms_tail = p{p:g} of {len(samples)} frame samples "
                     f"(ladder capped at p{workload.TAIL_CAP:g}), median over {blocks} "
                     f"blocks of whole passes")
    return values, lines


def layer_metrics(workload, tally: Tally, segment: TracedSegment, plain_walls, traced_walls,
                  plain: Tally):
    clock = segment.clock
    enc = clock.count("encode", "frame")
    dec = clock.count("decode", "reconstruct_other")
    worker_ms, worker_n = segment.worker["ms"], segment.worker["count"]

    def per(total, frames):
        return total / frames if frames else 0.0

    parse_worker = worker_ms.get("decode.parse", 0.0)
    job_busy = worker_ms.get("job", 0.0)
    run_jobs_ms = clock.ms("parallel.run_jobs_ms")
    run_jobs_calls = clock.count("parallel", "run_jobs")
    jobs = getattr(workload, "JOBS", 1)
    searched = [r.stats for r in tally.records if r.stats is not None]
    acbm = clock.acbm
    values = {
        "me.estimate_ms": per(clock.ms("me.estimate_ms"), enc),
        "me.estimate_calls_per_frame": per(clock.count("encode", "me"), enc),
        "me.sad_evaluations_per_frame": per(sum(s.positions for s in searched), enc),
        "me.acbm_critical_frac": per(acbm["critical"], acbm["blocks"]),
        "me.acbm_fs_useful_frac": per(acbm["fs_useful"], acbm["critical"]),
        "engine.ref_plane_builds_per_frame": per(clock.count("encode", "ref_plane"), enc),
        "engine.ref_plane_ms": per(clock.ms("engine.ref_plane_ms"), enc),
        "encode.frame_ms": per(clock.side_ns["encode"] / 1e6, enc),
        "encode.dct_calls_per_frame": per(clock.fn_calls["forward_dct"]
                                          + clock.fn_calls["inverse_dct"], enc),
        "decode.frame_ms": per(clock.side_ns["decode"] / 1e6 + parse_worker, dec),
        "decode.ref_plane_builds_per_frame": per(clock.count("decode", "ref_plane"), dec),
        "stream.peak_buffered_bytes": float(getattr(workload, "peak_buffered_bytes", 0)),
        "stream.stalls": per(getattr(workload, "stalls", 0), getattr(workload, "sessions", 0)),
        "parallel.run_jobs_ms": per(run_jobs_ms, tally.pool_frames),
        "parallel.jobs": per(worker_n.get("job", 0), run_jobs_calls),
        "parallel.job_busy_ms": per(job_busy, tally.pool_frames),
        "parallel.worker_busy_frac": per(job_busy, jobs * run_jobs_ms),
        "parallel.overhead_ms": per(run_jobs_ms - job_busy / jobs, tally.pool_frames),
        "transport.arena_peak_bytes": float(obs_metrics.gauge("arena.bytes_in_flight").peak),
    }
    for name in ("encode.transform_quant_ms", "encode.entropy_ms", "encode.local_decode_ms",
                 "encode.other_ms"):
        values[name] = per(clock.ms(name), enc)
    for name in BIT_COUNTERS:
        values[name] = per(segment.bits[name], enc)
    values["decode.parse_ms"] = per(clock.ms("decode.parse_ms") + parse_worker, dec)
    for name in ("decode.dequant_ms", "decode.idct_ms", "decode.mc_ms", "decode.add_residual_ms",
                 "decode.reconstruct_other_ms", "decode.other_ms"):
        values[name] = per(clock.ms(name), dec)
    for name in ("stream.scan_ms", "stream.other_ms"):
        values[name] = per(clock.ms(name), dec)

    # Accounting: the parts of each side sum to its frame total (self
    # times partition the wrapped calls), and the wrapped calls cover
    # the benchmark's own stopwatch up to the unattributed remainder.
    encode_parts = ("me.estimate_ms", "engine.ref_plane_ms", "encode.transform_quant_ms",
                    "encode.entropy_ms", "encode.local_decode_ms", "encode.other_ms")
    decode_parts = ("decode.parse_ms", "decode.dequant_ms", "decode.idct_ms", "decode.mc_ms",
                    "decode.add_residual_ms", "decode.reconstruct_other_ms", "decode.other_ms")
    unattributed = tally.calls_s - clock.root_ns / 1e9
    values["layers.unattributed_frac"] = per(unattributed, tally.calls_s)
    frames_per_pass = (plain.encode_frames + plain.decode_frames) / len(plain_walls)
    values["trace.overhead_ms"] = 1000.0 * (
        statistics.median(traced_walls) - statistics.median(plain_walls)) / frames_per_pass
    lines = []
    ok = not clock.unmapped() and values["layers.unattributed_frac"] <= UNATTRIBUTED_TOLERANCE
    for side, parts, frames in (("encode", encode_parts, enc), ("decode", decode_parts, dec)):
        total = values[f"{side}.frame_ms"]
        gap = abs(sum(values[p] for p in parts) - total)
        lines.append(f"{side}: {frames} traced frames; layer self times sum to {side}.frame_ms "
                     f"{total:.4f} ms within {gap:.2e} ms")
        ok = ok and gap <= 1e-6 * max(total, 1.0)
    lines.append(f"unattributed: {unattributed * 1000:.2f} ms of {tally.calls_s * 1000:.2f} ms "
                 f"traced call time ({values['layers.unattributed_frac']:.2%}, tolerance "
                 f"{UNATTRIBUTED_TOLERANCE:.0%})")
    if clock.unmapped():
        lines.append(f"unmapped layer buckets: {clock.unmapped()}")
    lines.append(f"tracing overhead: traced pass {statistics.median(traced_walls) * 1000:.1f} ms "
                 f"vs untraced {statistics.median(plain_walls) * 1000:.1f} ms "
                 f"({len(traced_walls)} pairs)")
    return values, lines, ok
