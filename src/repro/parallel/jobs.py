"""Hashable job specifications for the experiment orchestration layer.

Each spec is a frozen dataclass describing one self-contained unit of
work — an encode of one ``(sequence, fps, estimator, Qp)`` cell, one
GOP, one frame's symbol parse, one Fig. 4 frame pair — plus ``run()``, the
module-level execution recipe :func:`repro.parallel.pool.run_jobs`
invokes in whatever process the job lands.  Specs are hashable and
carry only primitives/frozen configs, so they pickle cheaply across the
``spawn`` boundary and can key caches and dedup sets.

On the **pickling transport** workers re-derive their inputs from the
spec: sequence renders are memoized **per process**
(:func:`rendered_source`), so a worker that executes several cells of
the same clip pays the synthesis cost once, exactly like the serial
harness's shared cache.  Pool workers stay warm across ``run_jobs``
calls, so the memo lives as long as the worker does.  All rendering takes explicit seeds from the
spec, which is what makes job outputs independent of placement and
execution order.

On the **shared-memory transport** the per-process memo is retired
from the worker side entirely: ``pack_shm`` rewrites each spec against
a parent-owned :class:`~repro.transport.FrameStore`, which renders each
distinct source exactly once and hands every spec the same handles —
workers attach the segments and never render (or memo) anything.  The
memo keeps serving the parent and the pickling path; both transports
produce byte-identical results because the render recipes are
deterministic in ``(name, frames, seed, geometry)``.

Heavy imports (codec, experiments) happen inside ``run`` bodies: the
experiment modules import this package to build job lists, so importing
them here at module level would cycle.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.experiments.config import ExperimentConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.rd_curves import SweepCell
    from repro.transport import FrameHandle, FrameStore, SharedSequence
    from repro.video.frame import FrameGeometry
    from repro.video.sequence import Sequence


class JobSpec:
    """Minimal job interface: ``run`` does the work, ``describe`` is the
    one-line progress label.  Subclasses are frozen dataclasses.

    ``pack_shm`` is the zero-copy seam: handed a
    :class:`~repro.transport.FrameStore` it returns a spec whose bulk
    payloads live in shared memory
    (:class:`~repro.transport.FrameHandle`\\ s instead of the bytes).
    Specs that carry one-off blobs use :meth:`FrameStore.place`
    directly; the experiment specs (:class:`EncodeJob`,
    :class:`SweepJob`, :class:`Fig4PairJob`) go through the store's
    memoized render surface, so every cell of a sweep shares one placed
    copy of its source.  The default is the identity — a spec with no
    bulk payload behaves identically under both transports.
    """

    def run(self, rng: np.random.Generator | None = None):
        raise NotImplementedError

    def describe(self) -> str:
        return repr(self)

    def pack_shm(self, store: "FrameStore") -> "JobSpec":
        return self


#: Per-process memo of 30 fps source renders keyed by
#: ``(name, frames, seed, geometry)``.  Bounded by the experiment's
#: sequence roster (four clips in the paper's setup), so no eviction.
#: Pickle-path only in workers: under shared-memory transport specs
#: arrive pre-packed with handles and never consult this memo.
_RENDER_CACHE: dict = {}


def rendered_source(name: str, config: ExperimentConfig) -> "Sequence":
    """The 30 fps source render for ``name`` under ``config``, memoized
    in this process.

    Callers: the parent (directly and through
    :meth:`repro.transport.FrameStore.source_frames`) and
    pickle-transport workers re-deriving an :class:`EncodeJob`'s
    source.  Shm-transport workers read handles instead and never reach
    this function."""
    key = (name, config.frames, config.seed, config.geometry)
    source = _RENDER_CACHE.get(key)
    if source is None:
        from repro.video.synthesis.sequences import make_sequence

        source = make_sequence(
            name, frames=config.frames, seed=config.seed, geometry=config.geometry
        )
        _RENDER_CACHE[key] = source
    return source


@contextmanager
def borrowed_renders(sources: "Mapping[str, Sequence]", config: ExperimentConfig):
    """Lend caller-held renders to the per-process memo for one call
    (the benchmark suites share one session-scoped cache this way).
    Only reaches the calling process — workers re-render on first use.

    Frame count and geometry are validated up front; the synthesis seed
    is not observable on a rendered :class:`Sequence`, so borrowed
    entries are *evicted on exit* — a render that lies about its seed
    can only affect the sweep it was handed to (the seed serial loop's
    blast radius), never later sweeps served by the process-global
    memo.  Entries the memo already holds are left in place.
    """
    for name, source in sources.items():
        if len(source) != config.frames or source.geometry != config.geometry:
            raise ValueError(
                f"cached render {name!r} is {len(source)} frames of {source.geometry}, "
                f"config wants {config.frames} frames of {config.geometry}"
            )
    borrowed: list[tuple] = []
    for name, source in sources.items():
        key = (name, config.frames, config.seed, config.geometry)
        if key not in _RENDER_CACHE:
            _RENDER_CACHE[key] = source
            borrowed.append(key)
    try:
        yield
    finally:
        for key in borrowed:
            _RENDER_CACHE.pop(key, None)


def clear_render_cache() -> None:
    """Drop this process's render memo (hermetic benchmarking/tests)."""
    _RENDER_CACHE.clear()


@dataclass(frozen=True)
class EncodeJob(JobSpec):
    """One RD-sweep cell: encode one clip variant, summarize the run.

    The 30 fps source travels one of two ways: absent ``source`` (the
    pickling path) the worker re-renders it from ``(sequence, config)``
    through the per-process memo; with ``source`` set (:meth:`pack_shm`
    against a :class:`~repro.transport.FrameStore`) the pixels stay in
    shared memory and the spec carries only handles — every cell of the
    same clip shares one placed render.  Both paths feed the encoder
    the same frames, so the resulting :class:`SweepCell` is identical.
    """

    sequence: str
    fps: int
    estimator: str
    qp: int
    config: ExperimentConfig
    #: Shared-memory twin of the rendered source (``None`` ⇒ render in
    #: the worker).
    source: "SharedSequence | None" = None

    def describe(self) -> str:
        return f"{self.sequence}@{self.fps}fps {self.estimator} qp={self.qp}"

    def pack_shm(self, store: "FrameStore") -> "EncodeJob":
        if self.source is not None:
            return self
        return replace(self, source=store.source_frames(self.sequence, self.config))

    def run(self, rng: np.random.Generator | None = None) -> "SweepCell":
        from repro.codec.encoder import Encoder
        from repro.experiments.rd_curves import SweepCell, build_estimator

        if self.source is not None:
            from repro.transport import materialize

            source = materialize(self.source, unlink=False)
        else:
            source = rendered_source(self.sequence, self.config)
        clip = source.subsample(self.config.subsample_factor(self.fps))
        encoder = Encoder(
            estimator=build_estimator(self.estimator, self.config),
            qp=self.qp,
            keep_reconstruction=False,
        )
        encode = encoder.encode(clip)
        stats = encode.search_stats
        return SweepCell(
            sequence=self.sequence,
            fps=self.fps,
            estimator=self.estimator,
            qp=self.qp,
            rate_kbps=encode.rate_kbps,
            psnr_y=encode.mean_psnr_y,
            avg_positions=stats.avg_positions_per_block,
            full_search_fraction=stats.full_search_fraction,
            skipped_mbs=sum(f.skipped_mbs for f in encode.frames),
            mv_bits=sum(f.mv_bits for f in encode.frames),
            coefficient_bits=sum(f.coefficient_bits for f in encode.frames),
        )


@dataclass(frozen=True)
class SweepJob(JobSpec):
    """A whole RD sweep as one spec; :meth:`expand` yields the per-cell
    :class:`EncodeJob` list in the canonical (sequence, fps, estimator,
    Qp) order every consumer merges by.  Running the spec itself
    executes its cells serially — the whole sweep as one dispatch unit.

    :meth:`pack_shm` packs the *expanded* cells, so the sweep's sources
    ride as handles: the store memoizes per distinct render, meaning a
    four-clip sweep places four source copies no matter how many cells
    reference them."""

    config: ExperimentConfig
    estimators: tuple[str, ...]
    #: Shared-memory twin of :meth:`expand`'s cell list (``None`` ⇒
    #: expand and render in the worker).
    cells: tuple[EncodeJob, ...] | None = None

    def expand(self) -> tuple[EncodeJob, ...]:
        if self.cells is not None:
            return self.cells
        return tuple(
            EncodeJob(sequence=name, fps=fps, estimator=estimator, qp=qp, config=self.config)
            for name in self.config.sequences
            for fps in self.config.fps_list
            for estimator in self.estimators
            for qp in self.config.qps
        )

    def describe(self) -> str:
        return (
            f"sweep {'/'.join(self.config.sequences)} x {'/'.join(self.estimators)} "
            f"x {len(self.config.qps)} qps"
        )

    def pack_shm(self, store: "FrameStore") -> "SweepJob":
        if self.cells is not None:
            return self
        return replace(self, cells=tuple(cell.pack_shm(store) for cell in self.expand()))

    def run(self, rng: np.random.Generator | None = None) -> "tuple[SweepCell, ...]":
        return tuple(job.run(rng=rng) for job in self.expand())


@dataclass(frozen=True)
class ParseFrameJob(JobSpec):
    """Parse one indexed frame's symbols into a
    :class:`~repro.codec.decoder.ParsedPicture`.

    ``payload`` is one :class:`~repro.codec.decoder.FrameIndex` byte
    range of a version-2 stream (picture header through padding) —
    symbol parsing carries no cross-frame state, so a stream's parse
    jobs run concurrently while the (already batched) reconstruction
    pass stays sequential.  See ``decode_bitstream(..., jobs=N)``.

    The job runs :func:`~repro.codec.decoder.parse_payload`, the same
    per-payload parse and length check every decode mode runs, so a
    corrupt length field fails here with the serial decoder's error.

    The payload travels by value or as a shared-memory handle
    (:meth:`pack_shm`); the parsed symbols are identical either way.
    """

    payload: bytes | None
    payload_handle: "FrameHandle | None" = None

    def describe(self) -> str:
        size = len(self.payload) if self.payload is not None else self.payload_handle.nbytes
        return f"parse {size}B frame"

    def pack_shm(self, store: "FrameStore") -> "ParseFrameJob":
        if self.payload is None:
            return self
        return replace(self, payload=None, payload_handle=store.place(self.payload))

    def run(self, rng: np.random.Generator | None = None):
        from repro.codec.decoder import parse_payload

        payload = self.payload
        if payload is None:
            from repro.transport import read_array

            payload = read_array(self.payload_handle).tobytes()
        return parse_payload(payload)


@dataclass(frozen=True)
class GopEncodeJob(JobSpec):
    """Encode one GOP (an I-frame and its dependent P-frames) into a
    self-contained version-2 byte run.

    An I-frame resets the reference list *and* the predictor-seeding
    motion field, so a GOP shares no state with its predecessors —
    which is what lets :func:`repro.parallel.gop.encode_sequence_parallel`
    encode GOPs in worker processes and splice the returned byte runs
    into a stream byte-identical to the serial encoder's.  ``start`` is
    the GOP's position in the full sequence; the in-job positions
    ``start..start+len-1`` reproduce the serial encoder's frame-type
    decisions because a GOP never outlives ``i_period`` frames.

    Frames travel as raw plane bytes (hashable, pickle-cheap), or — when
    the pool runs under shared-memory transport — as
    :class:`~repro.transport.FrameHandle` references (:meth:`pack_shm`),
    so a GOP's source planes cross the spawn boundary as ~200-byte
    handles instead of megabytes of pickled bytes.  Workers rebuild the
    frames with the spec's geometry; the encoded bytes are identical
    under either transport.  Exactly one of ``planes``/``plane_handles``
    is set.
    """

    width: int
    height: int
    start: int
    #: One ``(y, cb, cr, frame_index)`` tuple of plane bytes per frame.
    planes: tuple[tuple[bytes, bytes, bytes, int], ...] | None
    estimator: str
    qp: int
    i_period: int
    n_ref_frames: int = 1
    bitstream_version: int = 2
    estimator_kwargs: tuple = ()
    #: Shared-memory twin of ``planes``: ``(y, cb, cr, frame_index)``
    #: tuples of handles, produced by :meth:`pack_shm`.
    plane_handles: "tuple[tuple[FrameHandle, FrameHandle, FrameHandle, int], ...] | None" = None

    def describe(self) -> str:
        frames = self.planes if self.planes is not None else self.plane_handles
        return f"gop @{self.start} ({len(frames)} frames)"

    def pack_shm(self, store: "FrameStore") -> "GopEncodeJob":
        if self.planes is None:
            return self
        place = store.place
        return replace(
            self,
            planes=None,
            plane_handles=tuple(
                (place(y), place(cb), place(cr), index) for y, cb, cr, index in self.planes
            ),
        )

    def _frames(self):
        from repro.video.frame import Frame

        w, h = self.width, self.height
        cw, ch = w // 2, h // 2
        if self.planes is not None:
            loaded = (
                (np.frombuffer(y, dtype=np.uint8), np.frombuffer(cb, dtype=np.uint8),
                 np.frombuffer(cr, dtype=np.uint8), index)
                for y, cb, cr, index in self.planes
            )
        else:
            from repro.transport import read_array

            loaded = (
                (read_array(y), read_array(cb), read_array(cr), index)
                for y, cb, cr, index in self.plane_handles
            )
        for y, cb, cr, index in loaded:
            yield Frame(
                y.reshape(h, w),
                cb.reshape(ch, cw),
                cr.reshape(ch, cw),
                index=index,
            )

    def run(self, rng: np.random.Generator | None = None):
        from repro.codec.bitstream import BitWriter
        from repro.codec.encoder import Encoder

        encoder = Encoder(
            estimator=self.estimator,
            qp=self.qp,
            estimator_kwargs=dict(self.estimator_kwargs),
            keep_reconstruction=False,
            bitstream_version=self.bitstream_version,
            i_period=self.i_period,
            n_ref_frames=self.n_ref_frames,
        )
        writer = BitWriter()
        records = tuple(
            record for record, _recon in encoder.encode_frames(writer, self._frames(), self.start)
        )
        return writer.getvalue(), records


@dataclass(frozen=True)
class Fig4PairJob(JobSpec):
    """One frame pair of the Fig. 3 rig: run batched FSBM over the
    pair, classify every block.

    Pickling path: the worker renders the whole rig (memoized per
    process via ``rig_frames_cached``) and slices out its pair.
    Shared-memory path (:meth:`pack_shm`): the parent's
    :class:`~repro.transport.FrameStore` places the rig stack once and
    the spec carries just the two :class:`~repro.transport.FrameHandle`
    leaves it observes — the worker never renders the rig.  Both paths
    classify identical pixels, so observations match bit-for-bit.
    """

    pair_index: int
    motions: tuple[tuple[int, int], ...]
    geometry: "FrameGeometry"
    p: int = 15
    block_size: int = 16
    seed: int = 0
    #: Shared-memory twin of ``(frames[i], frames[i+1])`` (``None`` ⇒
    #: render the rig in the worker).
    pair: "tuple[FrameHandle, FrameHandle] | None" = None

    def describe(self) -> str:
        dx, dy = self.motions[self.pair_index]
        return f"fig4 pair {self.pair_index} (commanded {dx:+d},{dy:+d})"

    def pack_shm(self, store: "FrameStore") -> "Fig4PairJob":
        if self.pair is not None:
            return self
        handles = store.rig_frames(self.motions, self.geometry, self.p, self.seed)
        return replace(self, pair=(handles[self.pair_index], handles[self.pair_index + 1]))

    def run(self, rng: np.random.Generator | None = None):
        from repro.experiments.fig4_characterization import observe_frames, rig_frames_cached

        if self.pair is not None:
            from repro.transport import read_array

            reference, current = (read_array(h) for h in self.pair)
        else:
            frames = rig_frames_cached(self.motions, self.geometry, self.p, self.seed)
            reference, current = frames[self.pair_index], frames[self.pair_index + 1]
        return observe_frames(
            reference,
            current,
            self.pair_index,
            self.motions[self.pair_index],
            block_size=self.block_size,
            p=self.p,
        )


__all__ = [
    "EncodeJob",
    "Fig4PairJob",
    "GopEncodeJob",
    "JobSpec",
    "ParseFrameJob",
    "SweepJob",
    "borrowed_renders",
    "clear_render_cache",
    "rendered_source",
]
