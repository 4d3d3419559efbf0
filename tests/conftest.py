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

from repro.codec.vlc import read_ue_golomb_bitwise
from repro.video.frame import QCIF, Frame, FrameGeometry
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


def gop_encode_jobs(clip: Sequence, i_period: int, qp: int = 20, estimator: str = "tss"):
    """One by-value :class:`~repro.parallel.GopEncodeJob` per GOP of
    ``clip`` — the spec list ``encode_sequence_parallel`` dispatches,
    and the one spec kind whose ``pack_shm`` moves pixels."""
    from repro.parallel import GopEncodeJob, split_gops

    frames = list(clip)
    return [
        GopEncodeJob(
            width=clip.geometry.width,
            height=clip.geometry.height,
            start=start,
            planes=tuple(
                (f.y.tobytes(), f.cb.tobytes(), f.cr.tobytes(), f.index)
                for f in frames[start:end]
            ),
            estimator=estimator,
            qp=qp,
            i_period=i_period,
        )
        for start, end in split_gops(len(frames), i_period)
    ]


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
        (metrics.Counter, "inc", lambda self, amount=1: None),
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


def grey_frame(geometry: FrameGeometry = QCIF, value: int = 128, index: int = 0) -> Frame:
    """A uniform frame."""
    return Frame(np.full((geometry.height, geometry.width), value, dtype=np.uint8), index=index)


def split_luma_blocks(mb: np.ndarray) -> np.ndarray:
    """(16,16) macroblock → (4, 8, 8) stack in H.263 block order (TL,
    TR, BL, BR): the oracle that
    :func:`repro.codec.macroblock.join_luma_blocks` and the whole-frame
    tilers invert."""
    return np.stack([mb[r : r + 8, c : c + 8] for r in (0, 8) for c in (0, 8)])


def read_ue_golomb(reader) -> int:
    """The decoders' ue(v) read: one 64-bit peek
    (:meth:`repro.codec.bitstream.BitReader.read_ue`), handing a code
    it declines (over-long prefix, truncated stream) to the seed
    bitwise reader, whose errors are the contract."""
    value = reader.read_ue()
    return read_ue_golomb_bitwise(reader) if value < 0 else value


def read_se_golomb(reader) -> int:
    """The decoders' se(v) read: :func:`read_ue_golomb` mapped
    0, 1, 2, 3, 4, … → 0, +1, −1, +2, −2, …"""
    mapped = read_ue_golomb(reader)
    return (mapped + 1) // 2 if mapped % 2 else -(mapped // 2)


def grained(plane: np.ndarray, grain: int) -> np.ndarray:
    """``plane`` made piecewise constant over ``grain x grain`` cells,
    each taking its top-left sample.  At grain 16 every cell is one
    16x16 macroblock; at 8 or 4 a macroblock spans 4 or 16 cells.  Few
    distinct cells make many displacements tie on SAD, so the search
    kernels' shortest-vector tie-break decides block after block."""
    cells = plane[::grain, ::grain]
    return np.repeat(np.repeat(cells, grain, axis=0), grain, axis=1)[: plane.shape[0], : plane.shape[1]]


def pinned(cls: type, **constants) -> type:
    """``cls`` with class constants (``max_recentres``,
    ``refine_steps``) set to values no workload runs.  The frame path
    and the per-block oracle both read them through ``self``, so the
    shared search machinery is checked beyond the codec's fixed
    settings."""
    return type(f"Pinned{cls.__name__}", (cls,), constants)


#: Every module that runs the half-pel stage: per-block
#: (:func:`repro.me.subpel.refine_half_pel`) and batched
#: (:func:`repro.me.engine.kernels.refine_half_pel_batch`).
HALF_PEL_STAGES = (
    ("repro.me.estimator", "refine_half_pel"),
    ("repro.me.predictive", "refine_half_pel"),
    ("repro.me.full_search", "refine_half_pel"),
    ("repro.core.acbm", "refine_half_pel"),
    ("repro.me.candidates", "refine_half_pel_batch"),
    ("repro.me.full_search", "refine_half_pel_batch"),
    ("repro.core.acbm", "refine_half_pel_batch"),
)


def integer_pel(monkeypatch) -> None:
    """Replace every estimator's half-pel stage, per block and batched,
    by the integer-grid identity: the anchor and its SAD kept, no
    position added.  The frame paths and the per-block oracle then
    compare on their integer-pel stages alone, with integer vectors
    feeding the neighbours' predictors."""
    import importlib

    def per_block(block, plane, block_y, block_x, anchor, anchor_sad, window):
        return anchor, anchor_sad, 0

    def batched(current, plane, anchor_dx, anchor_dy, anchor_sads, p, blocks=None):
        return 2 * anchor_dx, 2 * anchor_dy, anchor_sads, 0

    for module, name in HALF_PEL_STAGES:
        stage = per_block if name == "refine_half_pel" else batched
        monkeypatch.setattr(importlib.import_module(module), name, stage)
