"""Per-GOP parallel encoding.

``i_Period`` cuts a sequence into GOPs — an I-frame plus the P-frames
that depend on it — and the I-frame resets every piece of encoder
state that crosses frames (the reference list and the predictor-seeding
motion field).  GOPs are therefore independent encode units, exactly
like RD-sweep cells: :func:`encode_sequence_parallel` dispatches one
:class:`~repro.parallel.jobs.GopEncodeJob` per GOP through
:func:`~repro.parallel.pool.run_jobs` and concatenates the returned
byte runs in GOP order.

The splice is only valid for version-2 streams, whose pictures end
byte-aligned behind a length field; version-1 pictures end mid-byte, so
their concatenation is not the serial encoder's output.  With that
restriction the splice is *byte-identical* to the serial encode for
every worker count — ``tests/test_gop.py`` pins the identity,
``benchmarks/test_bench_gop.py`` gates the speedup.
"""

from __future__ import annotations

from repro.codec.encoder import EncodeResult, Encoder
from repro.parallel.jobs import GopEncodeJob
from repro.parallel.pool import ProgressFn, run_jobs
from repro.video.sequence import Sequence


def split_gops(n_frames: int, i_period: int) -> list[tuple[int, int]]:
    """Half-open ``(start, end)`` frame ranges of every GOP: a new one
    opens at each multiple of ``i_period`` (the serial encoder's
    frame-type rule, :meth:`~repro.codec.encoder.Encoder.is_intra_position`)."""
    if i_period < 1:
        raise ValueError(f"i_Period must be a positive GOP length in frames, got {i_period}")
    return [(start, min(start + i_period, n_frames)) for start in range(0, n_frames, i_period)]


def encode_sequence_parallel(
    sequence: Sequence,
    qp: int = 16,
    estimator: str = "acbm",
    estimator_kwargs: dict | None = None,
    i_period: int | None = None,
    n_ref_frames: int = 1,
    jobs: int = 1,
    base_seed: int = 0,
    bitstream_version: int = 2,
    progress: ProgressFn | None = None,
    use_shm: bool = False,
) -> EncodeResult:
    """Encode ``sequence`` GOP-by-GOP across ``jobs`` workers.

    Byte-identical to ``Encoder(...).encode(sequence)`` with the same
    parameters for every worker count (results merge in GOP order).
    Requires ``i_period`` (no GOP cuts, nothing to parallelize) and
    ``bitstream_version=2`` (version-1 pictures end mid-byte, so spliced
    GOP runs would not reproduce the serial stream).  The result carries
    no reconstruction — workers drop pixels, like the RD-sweep jobs.

    ``estimator`` must be a registry name: workers rebuild it from the
    spec, so an estimator *instance* cannot cross the spawn boundary.

    ``use_shm=True`` ships each GOP's source planes to workers as
    shared-memory :class:`~repro.transport.FrameHandle` references
    (``GopEncodeJob.pack_shm``) instead of pickled bytes — byte-identical
    output; ignored when ``jobs`` stay serial.
    """
    if i_period is None:
        raise ValueError("parallel GOP encode needs i_period: without GOP cuts there "
                         "is nothing to split")
    if bitstream_version != 2:
        raise ValueError(
            "parallel GOP encode splices byte-aligned version-2 streams; "
            f"version {bitstream_version} pictures end mid-byte and cannot be spliced"
        )
    if not isinstance(estimator, str):
        raise ValueError("parallel GOP encode needs an estimator registry name, not an instance")
    # Validates qp / i_period / n_ref_frames with the serial encoder's
    # exact error messages before any worker spawns.
    Encoder(
        estimator=estimator,
        qp=qp,
        estimator_kwargs=estimator_kwargs,
        i_period=i_period,
        n_ref_frames=n_ref_frames,
        bitstream_version=bitstream_version,
    )
    frames = list(sequence)
    geometry = sequence.geometry
    kwargs_spec = tuple(sorted((estimator_kwargs or {}).items()))
    specs = [
        GopEncodeJob(
            width=geometry.width,
            height=geometry.height,
            start=start,
            planes=tuple(
                (f.y.tobytes(), f.cb.tobytes(), f.cr.tobytes(), f.index)
                for f in frames[start:end]
            ),
            estimator=estimator,
            qp=qp,
            i_period=i_period,
            n_ref_frames=n_ref_frames,
            bitstream_version=bitstream_version,
            estimator_kwargs=kwargs_spec,
        )
        for start, end in split_gops(len(frames), i_period)
    ]
    results = run_jobs(
        specs, workers=jobs, base_seed=base_seed, progress=progress, use_shm=use_shm
    )
    records = [record for _chunk, gop_records in results for record in gop_records]
    bitstream = b"".join(chunk for chunk, _gop_records in results)
    return EncodeResult(
        name=sequence.name,
        qp=qp,
        estimator_name=estimator,
        fps=sequence.fps,
        frames=records,
        bitstream=bitstream,
        reconstruction=[],
        bitstream_version=bitstream_version,
    )
