"""Kernel-backend speed gates: numpy rows everywhere, compiled-numba
rows when numba is installed.

Two hot paths anchor the backend ABI (``repro.kernels``): the
whole-frame SAD-surface kernel (the motion-search workhorse) and the
whole-stream VLC symbol parse (the decoder front half).

* numpy rows — the numpy backend against the generic per-block SAD
  fallback (>= 2.0x) and against the per-bit oracle parse (>= 2.8x);
  gated on every machine;
* numba rows — the compiled backend against the numpy rows (>= 3.0x
  each); skipped visibly when numba is not importable.
"""

import numpy as np
import pytest

from repro import reference as oracle
from repro.codec.decoder import parse_bitstream_symbols
from repro.codec.encoder import encode_sequence
from repro.kernels import get_backend, reset_backend, set_backend
from repro.me.engine.kernels import _frame_sad_surfaces_generic, sad_surfaces_numpy

from .conftest import best_of


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
    return encode_sequence(sequence_cache["foreman"], qp=16, estimator="fsbm")


def _gate(label: str, baseline_s: float, fast_s: float, floor: float) -> None:
    speedup = baseline_s / fast_s
    print(f"\n{label}: {baseline_s * 1e3:.2f} ms -> {fast_s * 1e3:.2f} ms, {speedup:.2f}x")
    assert speedup >= floor, f"{label} only {speedup:.2f}x (floor {floor}x)"


def test_backend_sad_numpy(planes):
    """Numpy-backend SAD surfaces vs the generic per-block fallback."""
    current, reference = planes
    assert sad_surfaces_numpy(current, reference, 16, 15).shape == (9, 11, 31, 31)
    numpy_s = best_of(lambda: sad_surfaces_numpy(current, reference, 16, 15), 5)
    generic_s = best_of(lambda: _frame_sad_surfaces_generic(current, reference, 16, 15), 3)
    _gate("numpy SAD surfaces vs generic", generic_s, numpy_s, 2.0)


def test_backend_vlc_parse_numpy(encoded):
    """Numpy-backend symbol parse (LUT + word reader; no compiled scan)
    vs the per-bit oracle over identical bytes."""
    set_backend("numpy")
    bitstream = encoded.bitstream
    numpy_s = best_of(lambda: parse_bitstream_symbols(bitstream), 5)
    seed_s = best_of(lambda: oracle.parse_bitstream_symbols(bitstream), 3)
    _gate("numpy VLC parse vs per-bit", seed_s, numpy_s, 2.8)


def test_backend_sad_numba(numba_backend, planes):
    """Compiled SAD surfaces vs the numpy row (the first call pays the
    JIT warm-up, so compile before timing)."""
    current, reference = planes
    backend = numba_backend
    backend.sad_surfaces(current, reference, 16, 15)  # JIT warm-up
    numba_s = best_of(lambda: backend.sad_surfaces(current, reference, 16, 15), 5)
    numpy_s = best_of(lambda: sad_surfaces_numpy(current, reference, 16, 15), 5)
    _gate("numba SAD surfaces vs numpy", numpy_s, numba_s, 3.0)


def test_backend_vlc_parse_numba(numba_backend, encoded):
    """Compiled VLC parse vs the numpy-backend parse."""
    assert get_backend().name == "numba"
    parse = lambda: parse_bitstream_symbols(encoded.bitstream)  # noqa: E731
    numba_parsed = parse()  # JIT warm-up
    numba_s = best_of(parse, 5)
    set_backend("numpy")
    assert parse() == numba_parsed
    numpy_s = best_of(parse, 5)
    _gate("numba VLC parse vs numpy", numpy_s, numba_s, 3.0)
