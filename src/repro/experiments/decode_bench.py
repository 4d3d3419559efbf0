"""Decode throughput experiments: reconstruction paths and symbol parse.

Not a paper table — this is the serving-side counterpart of the kernel
benchmarks, covering the decoder's two cost axes:

* :func:`run_decode_bench` — whole-stream decode through the batched
  engine reconstruction vs the per-block oracle
  :func:`repro.reference.decode_bitstream` (bit-identity verified
  first, against each other *and* the encoder's closed-loop
  reconstruction).  With ``bitstream_version=2`` the verification set
  also covers the start-code frame index and the parallel symbol parse
  (``decode_bitstream(..., jobs=N)`` vs serial).
* :func:`run_parse_bench` — the symbol parse alone: the LUT + word-level
  reader against the per-bit oracle parse
  (:func:`repro.reference.parse_bitstream_symbols`) over the same bytes, after
  asserting both produce identical :class:`ParsedPicture` symbols.  The
  reconstruction-only cost of the parsed stream is timed alongside, so
  parse vs reconstruct shares are reported separately
  (``runner decode-bench --parse-only``).

``repro.experiments.runner decode-bench`` exposes both as CLI modes;
``benchmarks/test_bench_decode.py`` / ``test_bench_vlc.py`` record the
numbers to ``BENCH_decode.json`` / ``BENCH_vlc.json`` for CI's
regression gate.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

from repro import reference
from repro.codec.decoder import (
    FrameIndex,
    decode_bitstream,
    parse_bitstream_symbols,
    reconstruct_and_fold,
)
from repro.codec.encoder import encode_sequence
from repro.video.synthesis.sequences import make_sequence


@dataclass(frozen=True)
class DecodeBenchResult:
    """One decode benchmark's outcome."""

    sequence: str
    frames: int
    qp: int
    estimator: str
    bitstream_bytes: int
    per_block_ms: float
    batched_ms: float
    #: Batched decode == per-block oracle == encoder closed loop.
    reconstruction_identical: bool
    bitstream_version: int = 1
    #: v2 only: indexed parallel parse == serial decode (None for v1).
    parallel_identical: bool | None = None

    @property
    def identical(self) -> bool:
        """Every verified identity held (the CI gate)."""
        return self.reconstruction_identical and self.parallel_identical is not False

    @property
    def speedup(self) -> float:
        return self.per_block_ms / self.batched_ms

    def records(self) -> dict[str, float]:
        """The machine-readable payload for ``BENCH_decode.json`` —
        timing keys end in ``_ms`` (lower is better), ratio keys contain
        ``speedup`` (higher is better), matching the regression gate's
        key classification.  Version-2 runs get version-suffixed keys so
        recording one never collides with the v1 keys the committed
        baselines gate on (a framed, padded stream is a different
        workload)."""
        prefix = "decode" if self.bitstream_version == 1 else "decode_v2"
        return {
            f"{prefix}_per_block_ms": self.per_block_ms,
            f"{prefix}_batched_ms": self.batched_ms,
            f"{prefix}_speedup": self.speedup,
        }

    def as_text(self) -> str:
        lines = [
            f"decode bench: {self.sequence}, {self.frames} frames, qp={self.qp}, "
            f"{self.estimator}, {self.bitstream_bytes} bytes (v{self.bitstream_version})",
            f"  bit-identical (batched == per-block oracle == encoder loop): "
            f"{self.reconstruction_identical}",
        ]
        if self.parallel_identical is not None:
            lines.append(
                f"  parallel parse (jobs >= 2) == serial decode: {self.parallel_identical}"
            )
        lines.append(
            f"  per-block {self.per_block_ms:.1f} ms, batched {self.batched_ms:.1f} ms "
            f"-> speedup {self.speedup:.2f}x"
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class ParseBenchResult:
    """Symbol-parse benchmark: LUT + word reader vs the seed per-bit
    reader, with the batched reconstruction cost for scale."""

    sequence: str
    frames: int
    qp: int
    estimator: str
    bitstream_bytes: int
    parse_lut_ms: float
    parse_seed_ms: float
    reconstruct_ms: float
    identical: bool

    @property
    def parse_speedup(self) -> float:
        return self.parse_seed_ms / self.parse_lut_ms

    @property
    def parse_mbps(self) -> float:
        """Parse throughput of the LUT path in Mbit/s of bitstream."""
        return self.bitstream_bytes * 8 / (self.parse_lut_ms / 1000.0) / 1e6

    def records(self) -> dict[str, float]:
        """Payload for ``BENCH_vlc.json`` (same key conventions as the
        other records; ``vlc_parse_mbps`` is informational)."""
        return {
            "vlc_parse_lut_ms": self.parse_lut_ms,
            "vlc_parse_seed_ms": self.parse_seed_ms,
            "vlc_parse_speedup": self.parse_speedup,
            "vlc_parse_mbps": self.parse_mbps,
            "vlc_reconstruct_ms": self.reconstruct_ms,
        }

    def as_text(self) -> str:
        total = self.parse_lut_ms + self.reconstruct_ms
        return (
            f"parse bench: {self.sequence}, {self.frames} frames, qp={self.qp}, "
            f"{self.estimator}, {self.bitstream_bytes} bytes\n"
            f"  symbols identical (LUT reader == seed bit reader): {self.identical}\n"
            f"  parse: LUT {self.parse_lut_ms:.1f} ms vs seed {self.parse_seed_ms:.1f} ms "
            f"-> speedup {self.parse_speedup:.2f}x ({self.parse_mbps:.2f} Mbit/s)\n"
            f"  decode split: parse {self.parse_lut_ms:.1f} ms + "
            f"reconstruct {self.reconstruct_ms:.1f} ms "
            f"({self.parse_lut_ms / total:.0%} parse)"
        )


def _best_of(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(max(1, rounds)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _prepare_encode(sequence, frames, qp, estimator, seed, encode, bitstream_version=1):
    """Shared encode handling for both benches: build one, or validate
    and adopt the caller's prebuilt ``EncodeResult``."""
    if encode is None:
        clip = make_sequence(sequence, frames=frames, seed=seed)
        encode = encode_sequence(
            clip, qp=qp, estimator=estimator, keep_reconstruction=True,
            bitstream_version=bitstream_version,
        )
    elif not encode.reconstruction:
        raise ValueError("prebuilt encode needs keep_reconstruction=True for bit-identity checks")
    elif encode.bitstream_version != bitstream_version:
        raise ValueError(
            f"prebuilt encode is bitstream v{encode.bitstream_version}, "
            f"bench wants v{bitstream_version}"
        )
    return encode


def run_decode_bench(
    sequence: str = "foreman",
    frames: int = 9,
    qp: int = 16,
    estimator: str = "fsbm",
    seed: int = 0,
    rounds: int = 3,
    encode=None,
    jobs: int = 1,
    bitstream_version: int = 1,
    use_shm: bool = False,
) -> DecodeBenchResult:
    """Encode ``frames`` of a synthetic clip, then time the batched
    decoder against the per-block oracle
    (:func:`repro.reference.decode_bitstream`) over the same bitstream
    (best of ``rounds``).

    Pass a prebuilt ``EncodeResult`` (with ``keep_reconstruction=True``
    and matching parameters) via ``encode`` to skip the encode — the
    benchmark suite reuses one shared encode across its tests.  The
    timed decodes always run serially in this process (anything else
    would corrupt the wall-clock comparison).

    ``bitstream_version=2`` additionally scans the stream with
    :class:`~repro.codec.decoder.FrameIndex` and verifies the parallel
    symbol parse: ``decode_bitstream(..., jobs=max(jobs, 2))`` must be
    bit-identical to the serial decode — the CI smoke path for the v2
    encode→index→parallel-parse→decode pipeline.  ``use_shm=True`` runs
    that parallel parse over the shared-memory transport
    (``run_jobs(..., use_shm=True)``), the CI byte-identity smoke for
    the zero-copy path; ``jobs`` and ``use_shm`` only affect this v2
    verification.
    """
    encode = _prepare_encode(
        sequence, frames, qp, estimator, seed, encode, bitstream_version
    )
    sequence, qp, estimator = encode.name, encode.qp, encode.estimator_name
    frames = len(encode.reconstruction)
    bitstream = encode.bitstream
    batched = decode_bitstream(bitstream)
    per_block = reference.decode_bitstream(bitstream)
    reconstruction_identical = (
        len(batched) == len(per_block) == len(encode.reconstruction)
        and all(b == s for b, s in zip(batched, per_block))
        and all(b == r for b, r in zip(batched, encode.reconstruction))
    )
    parallel_identical = None
    if bitstream_version == 2:
        index = FrameIndex.scan(bitstream)
        parallel = decode_bitstream(bitstream, jobs=max(jobs, 2), use_shm=use_shm)
        parallel_identical = len(index) == len(parallel) == len(batched) and all(
            p == b for p, b in zip(parallel, batched)
        )
    batched_s = _best_of(lambda: decode_bitstream(bitstream), rounds)
    per_block_s = _best_of(lambda: reference.decode_bitstream(bitstream), rounds)
    return DecodeBenchResult(
        sequence=sequence,
        frames=frames,
        qp=qp,
        estimator=estimator,
        bitstream_bytes=len(bitstream),
        per_block_ms=per_block_s * 1000.0,
        batched_ms=batched_s * 1000.0,
        reconstruction_identical=reconstruction_identical,
        bitstream_version=bitstream_version,
        parallel_identical=parallel_identical,
    )


def run_parse_bench(
    sequence: str = "foreman",
    frames: int = 9,
    qp: int = 16,
    estimator: str = "fsbm",
    seed: int = 0,
    rounds: int = 3,
    encode=None,
) -> ParseBenchResult:
    """Time the symbol parse alone, LUT + word reader vs seed reader.

    Both paths parse the identical (version-1) bytes; their
    :class:`~repro.codec.decoder.ParsedPicture` outputs are compared
    symbol-for-symbol before anything is timed, and the parsed stream
    is reconstructed once to report the parse/reconstruct split.
    """
    encode = _prepare_encode(sequence, frames, qp, estimator, seed, encode)
    sequence, qp, estimator = encode.name, encode.qp, encode.estimator_name
    frames = len(encode.reconstruction)
    bitstream = encode.bitstream
    parsed_lut = parse_bitstream_symbols(bitstream)
    parsed_seed = reference.parse_bitstream_symbols(bitstream)
    identical = len(parsed_lut) == len(parsed_seed) == frames and all(
        a == b for a, b in zip(parsed_lut, parsed_seed)
    )

    def reconstruct_all() -> None:
        references = []
        for i, picture in enumerate(parsed_lut):
            _frame, references = reconstruct_and_fold(picture, references, i)

    lut_s = _best_of(lambda: parse_bitstream_symbols(bitstream), rounds)
    seed_s = _best_of(lambda: reference.parse_bitstream_symbols(bitstream), rounds)
    reconstruct_s = _best_of(reconstruct_all, rounds)
    return ParseBenchResult(
        sequence=sequence,
        frames=frames,
        qp=qp,
        estimator=estimator,
        bitstream_bytes=len(bitstream),
        parse_lut_ms=lut_s * 1000.0,
        parse_seed_ms=seed_s * 1000.0,
        reconstruct_ms=reconstruct_s * 1000.0,
        identical=identical,
    )


def backend_stamp() -> dict[str, object]:
    """Provenance of the numbers: which kernel backend produced them.

    Stamped into every ``BENCH_*.json`` by :func:`write_records` —
    ``backend`` is the active backend's name, ``backend_numba_version``
    appears only when numba is importable, and ``machine_numba`` is the
    0/1 capability flag ``check_regression.py`` keys its conditional
    numba gates on.
    """
    from repro.kernels import get_backend, numba_available

    stamp: dict[str, object] = {
        "backend": get_backend().name,
        "machine_numba": 1 if numba_available() else 0,
    }
    if numba_available():
        import numba

        stamp["backend_numba_version"] = numba.__version__
    return stamp


def write_records(records: dict[str, float], path: Path) -> None:
    """Merge ``records`` into the JSON file at ``path`` (the same
    update-in-place convention as ``BENCH_kernels.json``), stamping
    backend provenance (:func:`backend_stamp`) alongside the numbers."""
    existing: dict[str, float] = {}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except ValueError:
            existing = {}
    existing.update(records)
    existing.update(backend_stamp())
    path.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")
