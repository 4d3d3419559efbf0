"""Every metric the benchmark reports: name, unit and better-direction.

``BENCHMARK.json`` at the repository root lists exactly these (the
benchmark's tests pin the match), so a name printed by ``run.py`` always
has a unit and a direction a regression gate can read.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" or "lower"
    #: Share of the parent's median by which an end-to-end metric may
    #: worsen before a change counts as a regression (None per layer).
    bound: float | None = None


# End-to-end metrics: what a user of the codec sees, measured untraced.
# Bounds are sized from ten-seed spreads on a shared 2-core container
# whose speed drifts by tens of percent over minutes (see README.md), so
# every timing gets the widest bound; psnr/rate/positions are
# deterministic per seed and only have to cover the seed-to-seed spread.
END_TO_END = (
    Metric("encode_fps", "frames/s", "higher", 0.25),
    Metric("decode_fps", "frames/s", "higher", 0.25),
    Metric("encode_frame_ms_p50", "ms", "lower", 0.25),
    Metric("encode_frame_ms_tail", "ms", "lower", 0.25),
    Metric("decode_frame_ms_p50", "ms", "lower", 0.25),
    Metric("decode_frame_ms_tail", "ms", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("psnr_y_db", "dB", "higher", 0.03),
    Metric("rate_kbps", "kbit/s", "lower", 0.2),
    Metric("positions_per_mb", "positions/MB", "lower", 0.15),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)

# Per-layer metrics from the traced run.  Times and counts are per frame
# of the side they belong to (encode or decode) unless the name says
# otherwise; see README.md for which end-to-end metric each should move.
PER_LAYER = (
    # repro.me / repro.core
    Metric("me.estimate_ms", "ms", "lower"),
    Metric("me.estimate_calls_per_frame", "count", "lower"),
    Metric("me.sad_evaluations_per_frame", "count", "lower"),
    Metric("me.acbm_critical_frac", "ratio", "lower"),
    Metric("me.acbm_fs_useful_frac", "ratio", "higher"),
    Metric("engine.ref_plane_builds_per_frame", "count", "lower"),
    Metric("engine.ref_plane_ms", "ms", "lower"),
    # repro.codec.encoder
    Metric("encode.frame_ms", "ms", "lower"),
    Metric("encode.transform_quant_ms", "ms", "lower"),
    Metric("encode.entropy_ms", "ms", "lower"),
    Metric("encode.local_decode_ms", "ms", "lower"),
    Metric("encode.other_ms", "ms", "lower"),
    Metric("encode.dct_calls_per_frame", "count", "lower"),
    Metric("encode.bits.headers", "bits", "lower"),
    Metric("encode.bits.mode", "bits", "lower"),
    Metric("encode.bits.mv", "bits", "lower"),
    Metric("encode.bits.coefficients", "bits", "lower"),
    # repro.codec.decoder
    Metric("decode.frame_ms", "ms", "lower"),
    Metric("decode.parse_ms", "ms", "lower"),
    Metric("decode.dequant_ms", "ms", "lower"),
    Metric("decode.idct_ms", "ms", "lower"),
    Metric("decode.mc_ms", "ms", "lower"),
    Metric("decode.add_residual_ms", "ms", "lower"),
    Metric("decode.reconstruct_other_ms", "ms", "lower"),
    Metric("decode.other_ms", "ms", "lower"),
    Metric("decode.ref_plane_builds_per_frame", "count", "lower"),
    # repro.streaming
    Metric("stream.scan_ms", "ms", "lower"),
    Metric("stream.other_ms", "ms", "lower"),
    Metric("stream.peak_buffered_bytes", "bytes", "lower"),
    Metric("stream.stalls", "count", "lower"),
    # repro.parallel / repro.transport
    Metric("parallel.run_jobs_ms", "ms", "lower"),
    Metric("parallel.jobs", "count", "lower"),
    Metric("parallel.job_busy_ms", "ms", "lower"),
    Metric("parallel.worker_busy_frac", "ratio", "higher"),
    Metric("parallel.overhead_ms", "ms", "lower"),
    Metric("transport.arena_peak_bytes", "bytes", "lower"),
    # accounting
    Metric("layers.unattributed_frac", "ratio", "lower"),
    Metric("trace.overhead_ms", "ms", "lower"),
)
