"""Per-layer self-time accounting for the traced run.

:class:`LayerClock` wraps the public functions each layer exposes — module
attributes and class attributes of ``repro`` — with a timer that keeps a
call stack, so every wrapped call's *self* time (its wall time minus the
wrapped calls it made) lands in exactly one ``(side, layer)`` bucket.
Buckets therefore sum to the wall time of the outermost wrapped calls,
and what those calls leave uncovered inside the benchmark's own
stopwatch is the unattributed remainder.

A wrapper declares its side (``encode``, ``decode``, ``stream``,
``parallel``) or inherits the side of the nearest wrapped caller: the
chroma motion compensation and the half-pel plane build are shared by
the encoder's local decode and the decoder, and are charged to whichever
called them.

Nothing here runs unless the traced run installs it; ``uninstall``
restores every attribute it replaced.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict

import repro.codec.decoder as decoder
import repro.codec.encoder as encoder
import repro.parallel as parallel
import repro.parallel.gop as gop
import repro.streaming.decoder as stream_decoder
from repro.codec.bitstream import BitWriter
from repro.core.acbm import ACBMEstimator
from repro.kernels import get_backend, set_backend
from repro.me.engine import ChromaReferencePlane, ReferencePlane
from repro.me.estimator import MotionEstimator
from repro.streaming.scanner import ScanState

# (side, layer) -> per-layer metric.  A bucket missing here would be
# time the report silently drops; the tests pin that every bucket the
# installed wrappers can produce is mapped.
LAYER_METRICS = {
    ("encode", "frame"): "encode.other_ms",
    ("encode", "me"): "me.estimate_ms",
    ("encode", "ref_plane"): "engine.ref_plane_ms",
    ("encode", "transform_quant"): "encode.transform_quant_ms",
    ("encode", "entropy"): "encode.entropy_ms",
    ("encode", "local_decode"): "encode.local_decode_ms",
    ("encode", "mc"): "encode.local_decode_ms",
    ("encode", "idct"): "encode.local_decode_ms",
    ("decode", "other"): "decode.other_ms",
    ("decode", "parse"): "decode.parse_ms",
    ("decode", "dequant"): "decode.dequant_ms",
    ("decode", "idct"): "decode.idct_ms",
    ("decode", "mc"): "decode.mc_ms",
    ("decode", "ref_plane"): "decode.mc_ms",
    ("decode", "add_residual"): "decode.add_residual_ms",
    ("decode", "reconstruct_other"): "decode.reconstruct_other_ms",
    ("stream", "other"): "stream.other_ms",
    ("stream", "scan"): "stream.scan_ms",
    ("parallel", "run_jobs"): "parallel.run_jobs_ms",
}


class _Frame:
    __slots__ = ("side", "child_ns")

    def __init__(self, side: str) -> None:
        self.side = side
        self.child_ns = 0


class LayerClock:
    """Self-time buckets filled by wrapped calls (see the module docstring)."""

    def __init__(self) -> None:
        self.self_ns: dict[tuple[str, str], int] = defaultdict(int)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        #: Wall time of the outermost wrapped call of each side.
        self.side_ns: dict[str, int] = defaultdict(int)
        #: Wall time of calls made with no wrapped caller at all.
        self.root_ns = 0
        #: ACBM block outcomes: blocks, critical, critical whose full
        #: search beat the predictive vector.
        self.acbm = {"blocks": 0, "critical": 0, "fs_useful": 0}
        #: Calls per wrapped function name.
        self.fn_calls: dict[str, int] = defaultdict(int)
        self._stack: list[_Frame] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- timing ---------------------------------------------------------

    def timed(self, fn, layer: str, side: str | None = None):
        """``fn`` wrapped to charge its self time to ``(side, layer)``."""
        stack = self._stack
        self_ns, calls, side_ns, fn_calls = self.self_ns, self.calls, self.side_ns, self.fn_calls
        clock = time.perf_counter_ns
        name = fn.__name__

        def wrapper(*args, **kwargs):
            fn_calls[name] += 1
            parent = stack[-1] if stack else None
            frame = _Frame(side or (parent.side if parent else "other"))
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                key = (frame.side, layer)
                self_ns[key] += elapsed - frame.child_ns
                calls[key] += 1
                if parent is None:
                    self.root_ns += elapsed
                else:
                    parent.child_ns += elapsed
                if parent is None or parent.side != frame.side:
                    side_ns[frame.side] += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching -------------------------------------------------------

    def _replace(self, owner, attr: str, value) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, layer: str, side: str | None = None) -> None:
        """Replace ``owner.attr`` (a module function, or a plain or
        static method of a class) with its timed twin."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, staticmethod):
            self._replace(owner, attr, staticmethod(self.timed(original.__func__, layer, side)))
        else:
            self._replace(owner, attr, self.timed(original, layer, side))

    def install(self) -> None:
        """Wrap every layer's public entry points."""
        # Encoder: the frame step, then what it calls per macroblock.
        self.wrap(encoder.Encoder, "encode_frame_into", "frame", "encode")
        self.wrap(MotionEstimator, "estimate", "me")
        for name in ("forward_dct", "code_inter_block", "code_intra_block"):
            self.wrap(encoder, name, "transform_quant")
        for name in ("write_events", "write_mvd", "predict_mv"):
            self.wrap(encoder, name, "entropy")
        for name in ("write_bit", "write_bits", "write_code", "write_ue"):
            self.wrap(BitWriter, name, "entropy")
        for name in ("inverse_dct", "frame_mc_luma", "intra_predict", "predict_block",
                     "predict_chroma_block"):
            self.wrap(encoder, name, "local_decode")
        self._count_acbm_blocks(ACBMEstimator)

        # Shared engine pieces, charged to the calling side.
        self.wrap(ChromaReferencePlane, "mc_frame", "mc")
        self._time_half_plane_builds(ReferencePlane)

        # Decoder: whole-buffer frame step and the reconstruct kernels.
        self.wrap(decoder.Decoder, "decode_frame", "other", "decode")
        for name in ("read_picture_header", "parse_picture_body"):
            self.wrap(decoder, name, "parse", "decode")
        self.wrap(decoder, "check_frame_length", "other", "decode")
        self.wrap(decoder, "reconstruct_picture", "reconstruct_other", "decode")
        for name in ("dequantize", "dequantize_intra_dc"):
            self.wrap(decoder, name, "dequant")
        self.wrap(decoder, "frame_mc_luma", "mc")
        self.wrap(decoder, "add_residual_clip", "add_residual")
        backend = get_backend()
        self._patches.append((None, "backend", backend))
        set_backend(dataclasses.replace(backend, idct=self.timed(backend.idct, "idct")))

        # Streaming session: scanner, session bookkeeping, per-frame calls.
        self.wrap(ScanState, "feed", "scan", "stream")
        self.wrap(ScanState, "finish", "scan", "stream")
        self.wrap(stream_decoder.StreamDecoder, "feed", "other", "stream")
        self.wrap(stream_decoder.StreamDecoder, "close", "other", "stream")
        self.wrap(stream_decoder, "parse_picture", "parse", "decode")
        self.wrap(stream_decoder, "check_frame_length", "other", "decode")
        self.wrap(stream_decoder, "reconstruct_picture", "reconstruct_other", "decode")

        # Process pool: decode_bitstream imports run_jobs from the
        # package at call time; the GOP encoder bound it at import.
        self.wrap(parallel, "run_jobs", "run_jobs", "parallel")
        self.wrap(gop, "run_jobs", "run_jobs", "parallel")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if owner is None:
                set_backend(original)
            else:
                setattr(owner, attr, original)

    def _count_acbm_blocks(self, cls) -> None:
        search_block = cls.__dict__["search_block"]
        tally = self.acbm

        def counted(estimator, ctx):
            result = search_block(estimator, ctx)
            tally["blocks"] += 1
            if result.used_full_search:
                tally["critical"] += 1
                if result.sad < result.sad_pbm:
                    tally["fs_useful"] += 1
            return result

        self._replace(cls, "search_block", counted)

    def _time_half_plane_builds(self, cls) -> None:
        """Time only the lazy whole-plane interpolation, not the
        per-candidate cached reads of the same property."""
        prop = cls.__dict__["half_plane"]
        build = self.timed(prop.fget, "ref_plane")

        def half_plane(plane):
            if plane._half is not None:
                return plane._half
            return build(plane)

        self._replace(cls, "half_plane", property(half_plane))

    # -- reading --------------------------------------------------------

    def ms(self, metric: str) -> float:
        """Self milliseconds summed over every bucket mapped to ``metric``."""
        return sum(ns for key, ns in self.self_ns.items() if LAYER_METRICS.get(key) == metric) / 1e6

    def count(self, side: str, layer: str) -> int:
        return self.calls.get((side, layer), 0)

    def unmapped(self) -> list[tuple[str, str]]:
        return [key for key in self.self_ns if key not in LAYER_METRICS]


def worker_spans(events, parent_pid: int) -> dict[str, dict]:
    """Milliseconds and counts per span name recorded in worker
    processes (the events ``run_jobs`` ships back while the ``repro.obs``
    tracer is on)."""
    totals: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    for event in events:
        if event.get("ph") == "X" and event.get("pid") != parent_pid:
            totals[event["name"]] += event["dur"] / 1000.0
            counts[event["name"]] += 1
    return {"ms": dict(totals), "count": dict(counts)}
