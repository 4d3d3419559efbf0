"""Observability layer: tracing, metrics, export, report, and the
zero-interference + cross-process-merge contracts.

The two load-bearing guarantees:

* **Zero interference** — tracing on or off, every backend emits
  byte-identical bitstreams and frames (the codec never reads obs
  state).
* **Mergeable timelines** — spans recorded inside spawned workers (the
  job pool in both transports) ship back and splice into the parent
  tracer with their own pid/tid stamps, nesting under the parent's ``job`` spans by timestamp containment;
  a failing worker still delivers the events it collected before dying.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass

import pytest

from repro.codec.decoder import FrameIndex, decode_bitstream
from repro.codec.encoder import encode_sequence
from repro.experiments.config import ExperimentConfig
from repro.kernels import available_backend_names, reset_backend, set_backend
from repro.obs import metrics, trace
from repro.obs.export import chrome_trace, load_trace, validate_trace, write_trace
from repro.obs.report import frame_rows, render_report
from repro.obs.metrics import MetricsRegistry
from repro.parallel import EncodeJob, JobSpec, ParseFrameJob, run_jobs
from repro.codec.bitstream import BitWriter
from repro.codec.encoder import Encoder
from repro.experiments.runner import decode_summary
from repro.streaming import StreamDecoder
from repro.video.synthesis.sequences import make_sequence

from .conftest import gop_encode_jobs, instrumentation_bypassed

TINY = ExperimentConfig(
    sequences=("miss_america",), qps=(20,), fps_list=(30,), frames=4
)


@dataclass(frozen=True)
class ObsFailJob(JobSpec):
    """Module-level (spawn-picklable) job that always raises."""

    def describe(self) -> str:
        return "obs-fail"

    def run(self, rng=None):
        raise ValueError("injected obs failure")


@pytest.fixture(autouse=True)
def clean_tracer():
    """Every test leaves the global tracer off and empty."""
    yield
    trace.TRACER.disable()
    trace.TRACER.drain()


@pytest.fixture(scope="module")
def v2_encode():
    clip = make_sequence("miss_america", frames=3, seed=0)
    return clip, encode_sequence(
        clip, qp=20, estimator="tss", bitstream_version=2
    )


def _span_contains(parent: dict, child: dict) -> bool:
    return (
        parent["pid"] == child["pid"]
        and parent["ts"] <= child["ts"] + 1e-6
        and child["ts"] + child.get("dur", 0.0)
        <= parent["ts"] + parent["dur"] + 1e-6
    )


class TestTracer:
    def test_disabled_helpers_return_shared_noops(self):
        """The disabled fast path allocates nothing: one singleton span,
        one singleton phase set, for every call site."""
        assert not trace.enabled()
        assert trace.span("x") is trace.span("y")
        assert trace.phases() is trace.phases()
        with trace.span("x", a=1) as s:
            s.set(b=2)
        assert s.duration_s == 0.0
        assert trace.TRACER.events == []

    def test_span_records_complete_event(self):
        trace.TRACER.enable()
        with trace.span("unit.work", frame=3) as s:
            s.set(bits=99)
        (event,) = trace.TRACER.drain()
        assert event["name"] == "unit.work"
        assert event["ph"] == "X"
        assert event["dur"] >= 0.0
        assert {"ts", "pid", "tid"} <= set(event)
        assert event["args"] == {"frame": 3, "bits": 99}
        assert s.duration_s > 0.0

    def test_instant(self):
        trace.TRACER.enable()
        trace.instant("marker", hit=True)
        (instant,) = trace.TRACER.drain()
        assert instant["name"] == "marker" and instant["ph"] == "i"
        assert instant["args"] == {"hit": True}
        # A disabled tracer records nothing.
        trace.TRACER.disable()
        trace.instant("ignored")
        assert trace.TRACER.drain() == []

    def test_phases_sum_exactly_and_lay_out_contiguously(self):
        trace.TRACER.enable()
        ph = trace.phases()
        for _ in range(3):
            with ph("a"):
                pass
            with ph("b"):
                pass
        ph.emit(frame=0)
        events = trace.TRACER.drain()
        assert [e["name"] for e in events] == ["a", "b"]
        # Buckets are laid back to back from the first measurement.
        assert events[1]["ts"] == pytest.approx(events[0]["ts"] + events[0]["dur"])
        assert all(e["args"] == {"frame": 0} for e in events)
        ph.emit()  # second emit is a no-op
        assert trace.TRACER.drain() == []

    def test_adopt_preserves_foreign_stamps(self):
        trace.TRACER.enable()
        foreign = {"name": "w", "ph": "X", "ts": 1.0, "dur": 2.0, "pid": 424242, "tid": 1}
        trace.TRACER.adopt([foreign])
        assert trace.TRACER.drain() == [foreign]


class TestMetrics:
    def test_instruments_get_or_create_identity_stable(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        assert reg.counter("c") is c
        c.inc(2)
        reg.reset()
        assert c.value == 0 and reg.counter("c") is c
        with pytest.raises(TypeError):
            reg.gauge("c")

    def test_counter_gauge_histogram_semantics(self):
        reg = MetricsRegistry()
        c, g, h = reg.counter("c"), reg.gauge("g"), reg.histogram("h")
        c.inc()
        c.inc(4)
        g.set(5)
        g.add(-2)
        h.observe(10)
        h.observe(20)
        assert c.value == 5
        assert (g.value, g.peak) == (3, 5)
        assert (h.count, h.total, h.mean) == (2, 30.0, 15.0)
        snap = reg.snapshot()
        assert snap["c"] == 5
        assert snap["g"] == {"value": 3, "peak": 5}
        assert snap["h"]["values"] == [10, 20]
        json.loads(reg.to_json())  # snapshot is JSON-clean


class TestExport:
    def test_chrome_trace_labels_processes(self):
        import os

        events = [
            {"name": "a", "ph": "X", "ts": 0.0, "dur": 1.0, "pid": os.getpid(), "tid": 1},
            {"name": "b", "ph": "X", "ts": 0.0, "dur": 1.0, "pid": 999999, "tid": 1},
        ]
        data = chrome_trace(events)
        labels = {
            e["pid"]: e["args"]["name"]
            for e in data["traceEvents"]
            if e["ph"] == "M"
        }
        assert labels[os.getpid()] == "repro"
        assert labels[999999] == "repro worker 999999"
        validate_trace(data)

    def test_write_load_roundtrip(self, tmp_path):
        trace.TRACER.enable()
        with trace.span("roundtrip"):
            pass
        path = write_trace(tmp_path / "t.json", trace.TRACER.drain())
        data = load_trace(path)
        assert any(e["name"] == "roundtrip" for e in data["traceEvents"])

    @pytest.mark.parametrize(
        "bad",
        [
            [],
            {"traceEvents": "nope"},
            {"traceEvents": [{"name": "x"}]},
            {"traceEvents": [{"name": "x", "ph": "X", "ts": 0.0, "pid": 1, "tid": 1}]},
        ],
    )
    def test_validate_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            validate_trace(bad)


class TestReport:
    def test_frame_rows_and_rendering(self):
        trace.TRACER.enable()
        with trace.span("encode.frame", frame=0, type="I", bits=100):
            ph = trace.phases()
            with ph("encode.transform_quant"):
                pass
            ph.emit()
        with trace.span("decode.frame", frame=0, type="I"):
            with trace.span("decode.parse"):
                pass
        rows = frame_rows(trace.TRACER.events)
        assert [r["kind"] for r in rows] == ["encode", "decode"]
        assert rows[0]["bits"] == 100
        assert rows[0]["transform_quant_ms"] >= 0.0
        assert rows[1]["parse_ms"] >= 0.0
        text = render_report(trace.TRACER.drain())
        assert "encode" in text and "decode" in text
        assert "2 frame spans" in text

    def test_empty_trace_renders_hint(self):
        assert "no frame spans" in render_report([])


class TestZeroInterference:
    """Instrumentation bypassed, shipped default or fully traced, every
    backend emits the seed's exact bytes."""

    @pytest.mark.parametrize("backend", available_backend_names())
    @pytest.mark.parametrize("version", [1, 2])
    def test_bitstream_and_frames_identical(self, backend, version):
        clip = make_sequence("miss_america", frames=3, seed=0)
        set_backend(backend)
        try:
            with instrumentation_bypassed():
                bypassed = encode_sequence(
                    clip, qp=20, estimator="tss", bitstream_version=version
                )
            untraced = encode_sequence(
                clip, qp=20, estimator="tss", bitstream_version=version
            )
            trace.TRACER.enable()
            traced = encode_sequence(
                clip, qp=20, estimator="tss", bitstream_version=version
            )
            traced_frames = decode_bitstream(traced.bitstream)
            trace.TRACER.disable()
            untraced_frames = decode_bitstream(untraced.bitstream)
        finally:
            reset_backend()
        assert traced.bitstream == untraced.bitstream == bypassed.bitstream
        assert all(a == b for a, b in zip(traced_frames, untraced_frames))
        # The traced round trip records the whole-stack timeline: frame
        # spans and sub-phases on both sides, several per frame.
        assert len(trace.TRACER.drain()) >= 4 * len(clip)


class TestCrossProcessMerge:
    """Worker spans ship back and nest under the parent's job spans."""

    def _run_traced(self, jobs, **kwargs):
        trace.TRACER.enable()
        results = run_jobs(jobs, workers=2, **kwargs)
        trace.TRACER.disable()
        return results, trace.TRACER.drain()

    def _assert_worker_nesting(self, events):
        import os

        parent_pid = os.getpid()
        pids = {e["pid"] for e in events}
        worker_pids = pids - {parent_pid}
        assert len(worker_pids) >= 2, f"expected 2 worker pids, got {pids}"
        job_spans = [e for e in events if e["name"] == "job" and e["ph"] == "X"]
        assert {e["pid"] for e in job_spans} == worker_pids
        # Every worker-side non-job span nests inside a job span of the
        # same pid (timestamp containment on the shared monotonic clock).
        for event in events:
            if event["pid"] == parent_pid or event["name"] == "job":
                continue
            if event["ph"] != "X":
                continue
            assert any(_span_contains(job, event) for job in job_spans), (
                f"unparented worker span: {event['name']} pid {event['pid']}"
            )
        # The parent records the run_jobs envelope around everything.
        assert any(
            e["name"] == "run_jobs" and e["pid"] == parent_pid for e in events
        )

    def test_pickling_transport_merges_worker_spans(self, v2_encode):
        _, encode = v2_encode
        index = FrameIndex.scan(encode.bitstream)
        jobs = [
            ParseFrameJob(index.payload(encode.bitstream, i))
            for i in range(len(index))
        ]
        results, events = self._run_traced(jobs, use_shm=False)
        assert results == run_jobs(jobs, workers=1)
        self._assert_worker_nesting(events)
        assert any(e["name"] == "decode.parse" for e in events)

    def test_shm_transport_merges_worker_spans(self, v2_encode):
        clip, _ = v2_encode
        jobs = gop_encode_jobs(clip, i_period=2)
        results, events = self._run_traced(jobs, use_shm=True)
        assert results == run_jobs(jobs, workers=1)
        self._assert_worker_nesting(events)
        assert any(e["name"] == "encode.frame" for e in events)

    def test_encode_jobs_ship_frame_spans(self, v2_encode):
        jobs = [
            EncodeJob("miss_america", 30, "tss", qp, TINY) for qp in (30, 20)
        ]
        _, events = self._run_traced(jobs)
        import os

        worker_frames = [
            e
            for e in events
            if e["name"] == "encode.frame" and e["pid"] != os.getpid()
        ]
        assert worker_frames, "worker encode.frame spans did not merge"

    def test_worker_failure_ships_partial_trace(self, v2_encode):
        """A dying worker's events still reach the parent timeline, and
        the error message stays in the historical format."""
        import os

        _, encode = v2_encode
        index = FrameIndex.scan(encode.bitstream)
        jobs = [
            ParseFrameJob(index.payload(encode.bitstream, i))
            for i in range(len(index))
        ] + [ObsFailJob()]
        trace.TRACER.enable()
        with pytest.raises(RuntimeError, match=r"parallel job failed .*injected obs failure"):
            run_jobs(jobs, workers=2)
        trace.TRACER.disable()
        events = trace.TRACER.drain()
        foreign = [e for e in events if e["pid"] != os.getpid()]
        assert foreign, "failing worker shipped no partial events"
        # The failing job's span completed (the context manager exits
        # before the exception is wrapped) and rode along.
        assert any(
            e["name"] == "job" and e["args"].get("job") == "obs-fail" for e in foreign
        )


class TestParseStageTracing:
    def test_push_decode_records_one_parse_per_frame(self, v2_encode):
        """A push decode parses every payload inline: one
        ``decode.parse`` span per frame, all on the calling thread."""
        trace.TRACER.enable()
        decoder = StreamDecoder()
        _, encode = v2_encode
        decoder.feed(encode.bitstream)
        frames = list(decoder.frames())
        decoder.close()
        frames += list(decoder.frames())
        trace.TRACER.disable()
        events = trace.TRACER.drain()
        import os

        parses = [e for e in events if e["name"] == "decode.parse"]
        assert len(parses) == len(frames)
        assert all(e["pid"] == os.getpid() for e in events)
        assert all(e["tid"] == threading.get_native_id() for e in parses)


class TestSessionStats:
    def test_decode_session_stalls_and_bits_history(self, v2_encode):
        _, encode = v2_encode
        index = FrameIndex.scan(encode.bitstream)
        payload_bits = [8 * (e - s) for s, e in index.ranges]
        stalls_before = metrics.REGISTRY.counter("stream.stalls").value
        decoder = StreamDecoder(max_buffered_frames=1)
        # Feed everything without draining: once demand hits zero every
        # further feed is a backpressure stall.
        for start in range(0, len(encode.bitstream), 64):
            decoder.feed(encode.bitstream[start : start + 64])
        frames = list(decoder.frames())
        decoder.close()
        frames += list(decoder.frames())
        assert len(frames) == len(payload_bits)
        assert decoder.stalls > 0
        assert f"{decoder.stalls} stalls" in decode_summary(decoder, 0.0)
        assert decoder.frame_bits == payload_bits
        # The process registry counts the same stalls.
        stalls = metrics.REGISTRY.counter("stream.stalls").value - stalls_before
        assert stalls == decoder.stalls

    def test_stats_without_stalls_stay_quiet(self, v2_encode):
        _, encode = v2_encode
        decoder = StreamDecoder(max_buffered_frames=8)
        decoder.feed(encode.bitstream)
        list(decoder.frames())
        decoder.close()
        list(decoder.frames())
        assert decoder.stalls == 0
        assert "stalls" not in decode_summary(decoder, 0.0)

    def test_encode_session_bits_out_history(self):
        """Each frame's record carries the bits it emitted — for v2,
        exactly its drained framed picture — and the registry's
        ``encode.bits_per_frame`` history observes the same values."""
        clip = make_sequence("miss_america", frames=3, seed=0)
        history = metrics.REGISTRY.histogram("encode.bits_per_frame")
        seen = len(history.values)
        encoder = Encoder(estimator="tss", qp=20, keep_reconstruction=False, bitstream_version=2)
        writer = BitWriter()
        bits = [
            (record.bits, 8 * len(writer.drain()))
            for record, _recon in encoder.encode_frames(writer, iter(clip))
        ]
        assert len(bits) == 3
        assert all(recorded == emitted for recorded, emitted in bits)
        assert history.values[seen:] == [recorded for recorded, _ in bits]


class TestCodecMetricsLedger:
    @pytest.mark.parametrize("version", [1, 2])
    def test_encode_bits_split_by_syntax_element(self, version):
        """The split sums exactly to the total — v2's framing and
        padding bits are charged to the headers bucket."""
        reg = metrics.REGISTRY
        names = [
            "encode.frames",
            "encode.bits",
            "encode.bits.headers",
            "encode.bits.mode",
            "encode.bits.mv",
            "encode.bits.coefficients",
            "me.sad_evaluations",
        ]
        before = {n: reg.counter(n).value for n in names}
        clip = make_sequence("miss_america", frames=3, seed=0)
        encode_sequence(clip, qp=20, estimator="tss", bitstream_version=version)
        delta = {n: reg.counter(n).value - before[n] for n in names}
        assert delta["encode.frames"] == 3
        assert delta["encode.bits"] > 0
        assert (
            delta["encode.bits.headers"]
            + delta["encode.bits.mode"]
            + delta["encode.bits.mv"]
            + delta["encode.bits.coefficients"]
            == delta["encode.bits"]
        )
        assert delta["me.sad_evaluations"] > 0

    def test_decode_and_cache_counters_advance(self, v2_encode):
        reg = metrics.REGISTRY
        _, encode = v2_encode
        before_frames = reg.counter("decode.frames").value
        before_wraps = reg.counter("refplane.hits").value + reg.counter("refplane.misses").value
        decode_bitstream(encode.bitstream)
        assert reg.counter("decode.frames").value - before_frames == 3
        assert (
            reg.counter("refplane.hits").value + reg.counter("refplane.misses").value
            > before_wraps
        )
        assert reg.counter("vlc.lut_builds").value > 0


class TestRunnerIntegration:
    def test_trace_and_metrics_flags_write_files(self, tmp_path, capsys):
        """An encoding and a decoding subcommand each write their trace
        and metrics files, then tear the global tracer down."""
        from repro.experiments.runner import main

        stream = tmp_path / "gop.v2"
        runs = (
            ("encode", ["gop-encode", "--frames", "2", "--i-period", "2", "--out", str(stream)]),
            ("decode", ["seek-decode", str(stream), "--frame", "0", "--verify"]),
        )
        for side, argv in runs:
            trace_path = tmp_path / f"{side}_trace.json"
            metrics_path = tmp_path / f"{side}_metrics.json"
            assert main(argv + ["--trace", str(trace_path), "--metrics", str(metrics_path)]) == 0
            names = {e["name"] for e in load_trace(trace_path)["traceEvents"]}
            assert f"{side}.frame" in names
            snapshot = json.loads(metrics_path.read_text())
            assert snapshot[f"{side}.frames"] >= 2
            # The global tracer was torn down after the run.
            assert not trace.TRACER.enabled
            assert trace.TRACER.events == []
        capsys.readouterr()

    def test_report_subcommand_renders_table(self, tmp_path, capsys):
        from repro.experiments.runner import main

        trace_path = tmp_path / "report_trace.json"
        assert main(
            ["table1", "--frames", "4", "--sequences", "miss_america", "--qps", "30",
             "--fps", "30", "--trace", str(trace_path)]
        ) == 0
        capsys.readouterr()
        assert main(["report", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "kind" in out and "total_ms" in out
        assert "frame spans" in out

    def test_report_rejects_garbage(self, tmp_path, capsys):
        from repro.experiments.runner import main

        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["report", str(bad)]) == 1
        capsys.readouterr()
