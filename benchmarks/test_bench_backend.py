"""Kernel-backend benchmarks: numpy reference rows plus compiled-numba
speedups when numba is installed.

Two hot paths anchor the backend ABI (``repro.kernels``): the
whole-frame SAD-surface kernel (the motion-search workhorse) and the
whole-stream VLC symbol parse (the decoder front half).  For each this
module records

* ``backend_sad_numpy_speedup`` / ``backend_vlc_parse_numpy_speedup``
  — the always-on numpy backend against the seed per-block / per-bit
  paths.  Measured everywhere, gated unconditionally by
  ``check_regression.py``;
* ``backend_sad_numba_speedup`` / ``backend_vlc_parse_numba_speedup``
  — the compiled backend against the numpy rows above.  Only measured
  when numba is importable (the benches skip visibly otherwise); the
  committed baselines are conservative >=3x floors and only gate when
  the fresh record says ``machine_numba >= 1``.

Everything lands in ``BENCH_backend.json`` at the repo root;
:func:`~repro.experiments.decode_bench.write_records` stamps the
active backend name and numba version alongside the numbers.
"""

import time

import numpy as np
import pytest

from repro import reference as oracle
from repro.codec.decoder import parse_bitstream_symbols
from repro.codec.encoder import encode_sequence
from repro.experiments.decode_bench import write_records
from repro.kernels import get_backend, numba_available, reset_backend, set_backend
from repro.me.engine.kernels import _frame_sad_surfaces_generic, sad_surfaces_numpy

from .conftest import bench_output_path

#: Flushed to BENCH_backend.json when the module finishes.
_RECORDS: dict[str, float] = {}


@pytest.fixture(scope="module", autouse=True)
def _write_backend_records():
    yield
    if _RECORDS:
        write_records(_RECORDS, bench_output_path("BENCH_backend.json"))


@pytest.fixture(autouse=True)
def _restore_backend():
    yield
    reset_backend()


@pytest.fixture(scope="module")
def planes():
    rng = np.random.default_rng(0)
    current = rng.integers(0, 256, (144, 176), dtype=np.uint8)
    reference = np.clip(
        current.astype(np.int16) + rng.integers(-6, 7, current.shape), 0, 255
    ).astype(np.uint8)
    return current, reference


@pytest.fixture(scope="module")
def encoded(sequence_cache):
    """One shared QCIF encode for the VLC-parse rows."""
    seq = sequence_cache["foreman"]
    return encode_sequence(seq, qp=16, estimator="fsbm", keep_reconstruction=True)


def _best_of(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_backend_sad_numpy(benchmark, planes):
    """Numpy-backend SAD surfaces vs the generic per-block fallback —
    the reference row every other backend is measured against."""
    current, reference = planes
    surfaces = benchmark(sad_surfaces_numpy, current, reference, 16, 15)
    assert surfaces.shape == (9, 11, 31, 31)
    numpy_s = benchmark.stats["min"]
    generic_s = _best_of(
        lambda: _frame_sad_surfaces_generic(current, reference, 16, 15), 3
    )
    _RECORDS["backend_sad_numpy_ms"] = numpy_s * 1000.0
    _RECORDS["backend_sad_numpy_speedup"] = generic_s / numpy_s
    assert _RECORDS["backend_sad_numpy_speedup"] > 1.0


def test_backend_vlc_parse_numpy(benchmark, encoded):
    """Numpy-backend symbol parse (LUT + word reader; no compiled scan)
    vs the seed per-bit reader over identical bytes."""
    set_backend("numpy")
    parsed = benchmark(parse_bitstream_symbols, encoded.bitstream)
    assert len(parsed) == len(encoded.reconstruction)
    numpy_s = benchmark.stats["min"]
    seed_s = _best_of(lambda: oracle.parse_bitstream_symbols(encoded.bitstream), 3)
    _RECORDS["backend_vlc_parse_numpy_ms"] = numpy_s * 1000.0
    _RECORDS["backend_vlc_parse_numpy_speedup"] = seed_s / numpy_s
    assert _RECORDS["backend_vlc_parse_numpy_speedup"] > 1.0


def test_backend_sad_numba(numba_backend, planes):
    """Compiled SAD surfaces vs the numpy row; >=3x is the committed
    floor CI gates when numba is present (first call pays the JIT
    warm-up, so compile before timing)."""
    current, reference = planes
    backend = numba_backend
    backend.sad_surfaces(current, reference, 16, 15)  # JIT warm-up
    numba_s = _best_of(lambda: backend.sad_surfaces(current, reference, 16, 15), 5)
    numpy_s = _best_of(lambda: sad_surfaces_numpy(current, reference, 16, 15), 5)
    _RECORDS["backend_sad_numba_ms"] = numba_s * 1000.0
    _RECORDS["backend_sad_numba_speedup"] = numpy_s / numba_s
    assert _RECORDS["backend_sad_numba_speedup"] >= 3.0, (
        f"compiled SAD only {_RECORDS['backend_sad_numba_speedup']:.2f}x vs numpy"
    )


def test_backend_vlc_parse_numba(numba_backend, encoded):
    """Compiled VLC parse vs the numpy-backend parse; >=3x floor."""
    assert get_backend().name == "numba"
    parse = lambda: parse_bitstream_symbols(encoded.bitstream)  # noqa: E731
    parse()  # JIT warm-up
    numba_parsed = parse_bitstream_symbols(encoded.bitstream)
    numba_s = _best_of(parse, 5)
    set_backend("numpy")
    numpy_parsed = parse_bitstream_symbols(encoded.bitstream)
    numpy_s = _best_of(parse, 5)
    assert len(numba_parsed) == len(numpy_parsed)
    assert all(a == b for a, b in zip(numba_parsed, numpy_parsed))
    _RECORDS["backend_vlc_parse_numba_ms"] = numba_s * 1000.0
    _RECORDS["backend_vlc_parse_numba_speedup"] = numpy_s / numba_s
    assert _RECORDS["backend_vlc_parse_numba_speedup"] >= 3.0, (
        f"compiled parse only {_RECORDS['backend_vlc_parse_numba_speedup']:.2f}x vs numpy"
    )


def test_backend_stamp_written():
    """The provenance stamp every BENCH writer attaches must name the
    active backend and the machine's numba capability."""
    from repro.experiments.decode_bench import backend_stamp

    stamp = backend_stamp()
    assert stamp["backend"] in ("numpy", "numba")
    assert stamp["machine_numba"] == (1 if numba_available() else 0)
    assert ("backend_numba_version" in stamp) == numba_available()
