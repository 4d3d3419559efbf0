"""Shared fixtures.

Everything here is deterministic: fixed seeds, tiny geometries (64x48
is the smallest legal multiple-of-16 frame with a non-square MB grid)
so the whole suite stays fast while exercising real code paths.
"""

from __future__ import annotations

import glob
from contextlib import contextmanager

import numpy as np
import pytest

from repro.video.frame import Frame, FrameGeometry
from repro.video.sequence import Sequence

#: Small but non-trivial geometry: 4x3 macroblocks.
SMALL = FrameGeometry(64, 48)


def backend_matrix():
    """Fixture factory parametrizing a golden suite over every kernel
    backend loadable here (``repro.kernels``).

    The golden modules (``test_engine``, ``test_reconstruction``,
    ``test_vlc_lut``, ``test_gop``) instantiate it at module scope::

        kernel_backend = backend_matrix()

    so each of their tests runs once per available backend with that
    backend pinned — on a pure-NumPy machine that is just ``[numpy]``;
    with numba installed every golden equivalence is re-proven against
    the compiled kernels (the references they compare against are the
    seed per-block/per-bit paths, which never dispatch).  Module scope
    keeps hypothesis's function-scoped-fixture health check quiet.
    """
    from repro.kernels import available_backend_names

    @pytest.fixture(scope="module", autouse=True, params=available_backend_names())
    def kernel_backend(request):
        from repro.kernels import reset_backend, set_backend

        set_backend(request.param)
        yield request.param
        reset_backend()

    return kernel_backend


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def small_geometry() -> FrameGeometry:
    return SMALL


def textured_plane(height: int, width: int, seed: int = 7, amplitude: float = 60.0) -> np.ndarray:
    """A reproducible textured uint8 plane (not a fixture so tests can
    parameterize it)."""
    gen = np.random.default_rng(seed)
    coarse = gen.random((height // 8 + 2, width // 8 + 2))
    ys = np.linspace(0, coarse.shape[0] - 1.001, height)
    xs = np.linspace(0, coarse.shape[1] - 1.001, width)
    y0 = ys.astype(int)
    x0 = xs.astype(int)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    plane = (
        coarse[np.ix_(y0, x0)] * (1 - fy) * (1 - fx)
        + coarse[np.ix_(y0, x0 + 1)] * (1 - fy) * fx
        + coarse[np.ix_(y0 + 1, x0)] * fy * (1 - fx)
        + coarse[np.ix_(y0 + 1, x0 + 1)] * fy * fx
    )
    fine = gen.random((height, width))
    out = 128.0 + amplitude * (plane - 0.5) * 2.0 + 10.0 * (fine - 0.5)
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def shifted_plane(plane: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """Integer shift with edge replication.

    ``out(y, x) = plane(y - dy, x - dx)``: content moves by (+dy, +dx).
    A block of the shifted plane therefore matches ``plane`` at
    displacement (-dx, -dy), i.e. the true motion vector (searching the
    shifted plane against ``plane`` as reference) is
    ``MotionVector(-2*dx, -2*dy)`` in half-pel units."""
    h, w = plane.shape
    ys = np.clip(np.arange(h) - dy, 0, h - 1)
    xs = np.clip(np.arange(w) - dx, 0, w - 1)
    return plane[np.ix_(ys, xs)]


@pytest.fixture
def textured() -> np.ndarray:
    return textured_plane(48, 64)


@pytest.fixture
def small_frame(textured) -> Frame:
    return Frame(textured)


@pytest.fixture
def small_sequence(textured) -> Sequence:
    frames = [Frame(shifted_plane(textured, 0, i), index=i) for i in range(4)]
    return Sequence(frames, fps=30.0, name="unit")


def shm_segments(prefix: str = "repro-") -> list[str]:
    """Live ``/dev/shm`` segments whose names start with ``prefix`` —
    the leak sweep every shared-memory test ends with (empty on
    platforms without ``/dev/shm``)."""
    return sorted(glob.glob(f"/dev/shm/{prefix}*"))


@contextmanager
def instrumentation_bypassed():
    """Replace every :mod:`repro.obs` entry point the codec seams call
    with a bare no-op for the duration — the closest runnable stand-in
    for instrumentation compiled out.

    The seams call ``trace.span(...)`` through the module attribute and
    hold direct references to their metric instruments, so patching the
    module functions and the instrument *methods* leaves one attribute
    load per seam.  The zero-interference test compares this mode's
    bytes against the shipped default; ``benchmarks/test_bench_obs.py``
    times against it.  Always restores, even when the body raises.
    """
    from repro.obs import metrics, trace

    noop_span, noop_phases = trace._NOOP_SPAN, trace._NOOP_PHASES
    patches = [
        (trace, "span", lambda name, **attrs: noop_span),
        (trace, "phases", lambda: noop_phases),
        (trace, "instant", lambda name, **attrs: None),
        (trace, "begin", lambda name, **attrs: None),
        (trace, "end", lambda token: None),
        (metrics.Counter, "inc", lambda self, amount=1: None),
        (metrics.Counter, "advance_to", lambda self, value: None),
        (metrics.Gauge, "set", lambda self, value: None),
        (metrics.Gauge, "add", lambda self, delta: None),
        (metrics.Histogram, "observe", lambda self, value: None),
    ]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    for owner, name, noop in patches:
        setattr(owner, name, noop)
    try:
        yield
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)
