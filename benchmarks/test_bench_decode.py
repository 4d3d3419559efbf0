"""Decode-path benchmarks: batched reconstruction vs the per-block
oracle.

The counterpart of ``test_bench_kernels.py`` for the serving side of
the codec: one encode, then the same bitstream decoded through the
engine's whole-frame kernels and through :mod:`repro.reference`, the
seed-style per-bit parse + per-block reconstruction oracle.
Timings (and the speedup) land in ``BENCH_decode.json`` at the repo
root for CI's regression gate.
"""

import pytest

from repro import reference
from repro.codec.decoder import decode_bitstream
from repro.codec.encoder import encode_sequence
from repro.experiments.decode_bench import run_decode_bench, write_records

from .conftest import bench_frames, bench_output_path

#: Flushed to BENCH_decode.json when the module finishes.
_RECORDS: dict[str, float] = {}


@pytest.fixture(scope="module", autouse=True)
def _write_decode_records():
    yield
    if _RECORDS:
        write_records(_RECORDS, bench_output_path("BENCH_decode.json"))


@pytest.fixture(scope="module")
def encoded(sequence_cache):
    """One shared QCIF encode (bitstream + closed-loop reconstruction)."""
    seq = sequence_cache["foreman"]
    return encode_sequence(seq, qp=16, estimator="fsbm", keep_reconstruction=True)


def test_decode_frame_batched(benchmark, encoded):
    """Whole-bitstream decode through the batched engine path."""
    frames = benchmark(decode_bitstream, encoded.bitstream)
    assert len(frames) == len(encoded.reconstruction)
    _RECORDS["decode_batched_qcif_ms"] = benchmark.stats["min"] * 1000.0


def test_decode_frame_per_block(benchmark, encoded):
    """The per-block oracle — the baseline the batched path is
    measured against."""
    frames = benchmark.pedantic(
        reference.decode_bitstream, args=(encoded.bitstream,), rounds=3, iterations=1
    )
    assert len(frames) == len(encoded.reconstruction)
    _RECORDS["decode_per_block_qcif_ms"] = benchmark.stats["min"] * 1000.0


def test_decode_speedup_batched_vs_per_block(encoded):
    """Golden perf claim: batched whole-frame reconstruction must beat
    the per-block oracle by >= 2x (bit-identity is verified inside the
    bench and asserted here; the golden proofs live in
    tests/test_reconstruction.py).

    The oracle also parses with the seed per-bit reader, so the ratio
    covers parse and reconstruction together.  The recorded BENCH_decode.json number is the real signal;
    the assertion is a regression backstop with margin for noisy CI
    runners.
    """
    result = run_decode_bench(
        sequence="foreman", frames=bench_frames(), qp=16, estimator="fsbm",
        rounds=5, encode=encoded,
    )
    assert result.identical, "decode paths disagree — see tests/test_reconstruction.py"
    _RECORDS.update(result.records())
    print(f"\n{result.as_text()}")
    assert result.speedup >= 2.0, f"batched decode regressed: only {result.speedup:.2f}x"
