"""Command-line entry point for the paper's experiments.

Usage::

    python -m repro.experiments.runner fig4
    python -m repro.experiments.runner fig5 --frames 21
    python -m repro.experiments.runner fig6 --frames 21 --jobs 4
    python -m repro.experiments.runner table1 --frames 21 --qps 30 22 16
    python -m repro.experiments.runner all --jobs 4
    python -m repro.experiments.runner stream-encode --from-yuv clip.yuv --geometry qcif \\
        --bitstream-version 2 --out stream.v2
    python -m repro.experiments.runner stream-decode stream.v2 --chunk-size 1500 --verify
    python -m repro.experiments.runner stream-decode stream.v2 --pipeline process --verify
    python -m repro.experiments.runner gop-encode --frames 10 --i-period 5 --jobs 2 \\
        --out stream.v2
    python -m repro.experiments.runner seek-decode stream.v2 --frame 5 --verify
    python -m repro.experiments.runner table1 --frames 4 --trace run.json
    python -m repro.experiments.runner report run.json

Every subcommand takes ``--backend {auto,numpy,numba}`` — the kernel
backend for the hot loops (:mod:`repro.kernels`); it overrides the
``REPRO_BACKEND`` environment variable and travels to spawned workers.

Each paper subcommand prints the same rows/series the corresponding
table or figure reports; ``all`` runs them over one shared sweep and
ends with a small streaming pass (push decode, pipelined decode and
streaming encode, each identity-checked, plus the memory bound).

The ``stream-*`` subcommands drive the incremental codec
(:mod:`repro.streaming`): ``stream-encode`` pulls frames straight off a
raw YUV file (never materializing the sequence) and writes the
bitstream as pictures close; ``stream-decode`` pushes a bitstream file
(or stdin) through a bounded-memory decode session in fixed-size chunks
and optionally re-decodes the whole buffer to gate bit-identity
(``--verify``, the CI smoke).  ``--pipeline`` overlaps symbol parse and
reconstruction on a worker thread or spawned process.

The GOP subcommands drive the stream structure layer: ``gop-encode``
encodes with ``i_Period`` I-frames and optional multi-reference
P-frames — serially, or per-GOP across workers with a byte-identical
splice; ``seek-decode`` random-accesses a v2 stream at an I-frame and
optionally gates the tail against the full decode.

Every subcommand that shards work with ``--jobs`` also takes
``--shm``/``--no-shm`` to pin the transport (shared-memory handles vs
pickled payloads); the default is automatic — shm exactly when workers
spawn — and stdout is byte-identical in every mode.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.reporting import format_histogram
from repro.experiments.config import ExperimentConfig
from repro.experiments.fig4_characterization import run_fig4
from repro.experiments.rd_curves import run_rd_sweep
from repro.experiments.table1_complexity import run_table1
from repro.obs import metrics as obs_metrics
from repro.obs import trace
from repro.obs.export import load_trace, write_metrics, write_trace
from repro.obs.report import render_report


def parse_geometry(value: str):
    """``qcif`` / ``cif`` / ``WxH`` → :class:`FrameGeometry`."""
    from repro.video.frame import CIF, QCIF, FrameGeometry

    named = {"qcif": QCIF, "cif": CIF}
    lowered = value.lower()
    if lowered in named:
        return named[lowered]
    try:
        width, height = (int(part) for part in lowered.split("x"))
        return FrameGeometry(width, height)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"geometry must be 'qcif', 'cif' or WxH (multiples of 16): {exc}"
        ) from None


def _config_from_args(args: argparse.Namespace, fps_list=None) -> ExperimentConfig:
    kwargs = dict(frames=args.frames, seed=args.seed)
    if args.sequences:
        kwargs["sequences"] = tuple(args.sequences)
    if args.qps:
        kwargs["qps"] = tuple(args.qps)
    if fps_list is not None:
        kwargs["fps_list"] = fps_list
    elif args.fps:
        kwargs["fps_list"] = tuple(args.fps)
    return ExperimentConfig(**kwargs)


def _progress(message: str) -> None:
    print(f"  ... {message}", file=sys.stderr, flush=True)


def _use_shm(args: argparse.Namespace) -> bool | str:
    """The transport mode the experiment drivers receive: an explicit
    ``--shm``/``--no-shm`` wins, otherwise ``"auto"`` (shared memory
    exactly when workers spawn).  Output is byte-identical either way —
    the flag exists for benchmarking and for pinning one path in CI."""
    return "auto" if args.shm is None else args.shm


def cmd_fig4(args: argparse.Namespace) -> None:
    result = run_fig4(
        seed=args.seed,
        jobs=args.jobs,
        progress=_progress if args.verbose else None,
        use_shm=_use_shm(args),
    )
    print(result.as_text())
    print()
    print(format_histogram(result.class_counts(), title="Blocks per error class"))
    print(f"\ntrue-vector fraction: {result.true_fraction():.1%}")


def cmd_rd(args: argparse.Namespace, fps: int) -> None:
    config = _config_from_args(args, fps_list=(fps,))
    sweep = run_rd_sweep(
        config,
        progress=_progress if args.verbose else None,
        jobs=args.jobs,
        use_shm=_use_shm(args),
    )
    print(sweep.as_text(fps))


def cmd_table1(args: argparse.Namespace) -> None:
    config = _config_from_args(args)
    table = run_table1(
        config,
        progress=_progress if args.verbose else None,
        jobs=args.jobs,
        use_shm=_use_shm(args),
    )
    print(table.as_text())
    print(f"\nmax reduction vs FSBM: {table.max_reduction():.1%}")


def cmd_stream_encode(args: argparse.Namespace) -> int:
    """Encode a raw YUV file incrementally: frames stream in through
    ``iter_yuv_frames``, bytes stream out as pictures close — the
    whole file is never resident."""
    from repro.streaming import EncodeSession
    from repro.video.yuv_io import iter_yuv_frames

    try:
        session = EncodeSession(
            estimator=args.estimator,
            qp=args.qp,
            bitstream_version=args.bitstream_version,
            i_period=args.i_period,
            n_ref_frames=args.n_ref_frames,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    frames = iter_yuv_frames(args.from_yuv, args.geometry, max_frames=args.max_frames)
    try:
        if args.out == "-":
            written = session.encode_to(sys.stdout.buffer, frames)
        else:
            with open(args.out, "wb") as sink:
                written = session.encode_to(sink, frames)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    stats = session.stats()
    print(
        f"stream-encode: {stats.frames_in} frames from {args.from_yuv} "
        f"({args.geometry.width}x{args.geometry.height}) -> {written} bytes "
        f"(v{args.bitstream_version}, {args.estimator}, qp={args.qp})",
        file=sys.stderr,
    )
    print(f"  {stats.as_text()}", file=sys.stderr)
    return 0


def cmd_stream_decode(args: argparse.Namespace) -> int:
    """Push a bitstream through a bounded-memory decode session in
    fixed-size chunks; optionally re-decode the whole buffer and gate
    bit-identity (``--verify``)."""
    from repro.codec.decoder import decode_bitstream
    from repro.streaming import DecodeSession

    if args.chunk_size < 1:
        print(f"error: --chunk-size must be >= 1, got {args.chunk_size}", file=sys.stderr)
        return 2
    if args.max_buffered < 1:
        print(f"error: --max-buffered must be >= 1, got {args.max_buffered}", file=sys.stderr)
        return 2
    try:
        source = sys.stdin.buffer if args.input == "-" else open(args.input, "rb")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        sink = open(args.out, "wb") if args.out else None
    except OSError as exc:
        if source is not sys.stdin.buffer:
            source.close()
        print(f"error: {exc}", file=sys.stderr)
        return 1
    decoded = []  # kept only under --verify
    fed = bytearray() if args.verify else None
    try:
        session = DecodeSession(
            max_buffered_frames=args.max_buffered,
            pipeline=args.pipeline if args.pipeline != "off" else False,
        )

        def drain() -> None:
            for frame in session.frames():
                if fed is not None:
                    decoded.append(frame)
                if sink is not None:
                    for plane in (frame.y, frame.cb, frame.cr):
                        sink.write(plane.tobytes())

        try:
            while True:
                chunk = source.read(args.chunk_size)
                if not chunk:
                    break
                if fed is not None:
                    fed += chunk
                session.feed(chunk)
                drain()
            session.close()
            drain()
        except (ValueError, EOFError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    finally:
        if source is not sys.stdin.buffer:
            source.close()
        if sink is not None:
            sink.close()
    stats = session.stats()
    print(f"stream-decode: {stats.frames_out} frames in {args.chunk_size}-byte chunks")
    print(f"  {stats.as_text()}")
    if args.verify:
        whole = decode_bitstream(bytes(fed))
        identical = len(whole) == len(decoded) and all(
            a == b for a, b in zip(decoded, whole)
        )
        print(f"  identical to whole-buffer decode: {identical}")
        if not identical:
            print("ERROR: streamed decode diverged from whole-buffer decode", file=sys.stderr)
            return 1
    return 0


def cmd_gop_encode(args: argparse.Namespace) -> int:
    """Encode one clip with GOP structure — serially, or per-GOP across
    workers (``--jobs``) with the spliced stream byte-identical to the
    serial encoder's.  Deterministic summary on stdout, so CI can diff
    serial and parallel runs."""
    from repro.codec.encoder import Encoder
    from repro.parallel import encode_sequence_parallel
    from repro.video.synthesis.sequences import make_sequence

    if args.sequences and len(args.sequences) > 1:
        print("error: gop-encode takes a single --sequences value", file=sys.stderr)
        return 2
    if args.qps and len(args.qps) > 1:
        print("error: gop-encode takes a single --qps value", file=sys.stderr)
        return 2
    sequence = (args.sequences or ["foreman"])[0]
    qp = (args.qps or [16])[0]
    clip = make_sequence(sequence, frames=args.frames, seed=args.seed)
    try:
        if args.jobs > 1:
            result = encode_sequence_parallel(
                clip,
                qp=qp,
                estimator=args.estimator,
                i_period=args.i_period,
                n_ref_frames=args.n_ref_frames,
                jobs=args.jobs,
                progress=_progress if args.verbose else None,
                use_shm=_use_shm(args),
            )
        else:
            result = Encoder(
                estimator=args.estimator,
                qp=qp,
                keep_reconstruction=False,
                bitstream_version=2,
                i_period=args.i_period,
                n_ref_frames=args.n_ref_frames,
            ).encode(clip)
        with open(args.out, "wb") as sink:
            sink.write(result.bitstream)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    types = "".join(r.frame_type for r in result.frames)
    print(
        f"gop-encode: {sequence}, {len(result.frames)} frames, qp={qp}, "
        f"i_period={args.i_period}, n_ref={args.n_ref_frames} -> "
        f"{len(result.bitstream)} bytes (v2)"
    )
    print(f"  frame types: {types}")
    print(f"  keyframes: {list(result.keyframes)}")
    return 0


def cmd_seek_decode(args: argparse.Namespace) -> int:
    """Random access: decode a v2 stream from an I-frame onward, and
    optionally gate the tail against the full decode (``--verify``)."""
    from repro.codec.decoder import FrameIndex, decode_bitstream, detect_version

    try:
        with open(args.input, "rb") as source:
            bitstream = source.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if detect_version(bitstream) != 2:
        print("error: seek-decode needs a version-2 stream (FrameIndex)", file=sys.stderr)
        return 1
    # Scan, seek and the verifying full decode all read untrusted bytes:
    # a truncated or corrupt stream reports its ValueError, like
    # stream-decode, instead of a traceback.
    try:
        index = FrameIndex.scan(bitstream)
        keyframes = index.keyframes(bitstream)
        types = "".join(index.frame_types(bitstream))
        if not keyframes:
            raise ValueError("the stream holds no frames")
        # Default to the middle keyframe — the interesting seek target
        # (0 is just a full decode).
        frame = keyframes[len(keyframes) // 2] if args.frame is None else args.frame
        print(f"seek-decode: {len(index)} frames ({types}), keyframes {list(keyframes)}")
        tail = decode_bitstream(bitstream, start_frame=frame)
        print(f"  decoded {len(tail)} frames from keyframe {frame}")
        full = decode_bitstream(bitstream) if args.verify else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if full is not None:
        identical = len(tail) == len(full) - frame and all(
            a == b for a, b in zip(tail, full[frame:])
        )
        print(f"  tail bit-identical to full decode: {identical}")
        if not identical:
            print("ERROR: seek decode diverged from the full decode", file=sys.stderr)
            return 1
    return 0


def _stream_stage(sequence: str, frames: int, qp: int, seed: int, chunk_size: int = 1500) -> None:
    """``all``'s streaming pass: encode a clip as v2, push-decode it in
    MTU-sized chunks (serial, then thread- and process-pipelined) and
    stream-encode it in both wire formats.  Prints one line per check
    and raises ``SystemExit`` unless every identity holds and the
    session's peak buffered bytes stay under two frames' worth of
    payload plus one reconstruction window."""
    from repro.codec.decoder import FrameIndex, decode_bitstream
    from repro.codec.encoder import encode_sequence
    from repro.streaming import DecodeSession, StreamEncoder
    from repro.video.synthesis.sequences import make_sequence
    from repro.video.yuv_io import frame_size_bytes

    clip = make_sequence(sequence, frames=frames, seed=seed)
    encode = encode_sequence(
        clip, qp=qp, estimator="tss", keep_reconstruction=True, bitstream_version=2
    )
    bitstream = encode.bitstream

    def push(pipeline: bool | str = False):
        session = DecodeSession(max_buffered_frames=2, pipeline=pipeline)
        out = []
        for start in range(0, len(bitstream), chunk_size):
            session.feed(bitstream[start : start + chunk_size])
            out.extend(session.frames())
        session.close()
        out.extend(session.frames())
        return out, session.stats()

    streamed, stats = push()
    stream_identical = streamed == decode_bitstream(bitstream) == encode.reconstruction
    piped = {kind: push(kind) for kind in ("thread", "process")}
    pipeline_identical = all(out == streamed for out, _ in piped.values())
    ledger = piped["process"][1]
    v1 = encode_sequence(clip, qp=qp, estimator="tss").bitstream
    encode_identical = all(
        b"".join(StreamEncoder(estimator="tss", qp=qp, bitstream_version=v).encode_iter(iter(clip)))
        == reference
        for v, reference in ((1, v1), (2, bitstream))
    )
    # A frame's worth of payload is a raw frame's bytes, widened by any
    # compressed payload that expands past it.
    raw_frame = frame_size_bytes(clip.geometry)
    max_payload = max(end - start for start, end in FrameIndex.scan(bitstream).ranges)
    bound = 2 * max(raw_frame, max_payload) + raw_frame
    within = stats.peak_buffered_bytes < bound
    # The header keeps its earlier wording so `all`'s stdout stays
    # byte-identical across versions.
    print(
        f"stream bench: {encode.name}, {len(encode.reconstruction)} frames, qp={qp}, tss, "
        f"{len(bitstream)} bytes (v2), {chunk_size}-byte chunks\n"
        f"  bit-identical (streamed == whole-buffer == encoder loop): {stream_identical}\n"
        f"  stream-encode byte-identical (v1 and v2): {encode_identical}\n"
        f"  pipelined bit-identical (thread and process): {pipeline_identical}\n"
        f"  transport (process pipeline): {ledger.bytes_copied} B copied in, "
        f"{ledger.handles_passed} handles back\n"
        f"  peak buffered {stats.peak_buffered_bytes} bytes "
        f"(bound {bound}: within={within}; whole buffer holds {len(bitstream)})"
    )
    if not (stream_identical and pipeline_identical and encode_identical and within):
        raise SystemExit("streaming stage failed: identity or memory bound broken")


def cmd_all(args: argparse.Namespace) -> None:
    """Everything, sharing one sweep, with a per-stage timing summary.

    Progress lines flush through the pool's progress callback
    (``--verbose``); the timing summary goes to stderr so stdout stays
    byte-identical to running the subcommands individually.

    The summary is read straight off trace spans: each stage runs under
    an ``all.stage`` span on a private always-on tracer (so the summary
    prints with or without ``--trace``), and when the global tracer is
    recording the stage spans are spliced into its timeline too.
    """
    stage_tracer = trace.Tracer()
    stage_tracer.enable()
    timings: list[tuple[str, trace.Span]] = []

    def timed(label: str, fn) -> object:
        with stage_tracer.span("all.stage", stage=label) as stage_span:
            value = fn()
        timings.append((label, stage_span))
        return value

    timed("fig4", lambda: cmd_fig4(args))
    print("\n" + "=" * 70 + "\n")
    config = _config_from_args(args)
    sweep = timed(
        "rd sweep",
        lambda: run_rd_sweep(
            config,
            progress=_progress if args.verbose else None,
            jobs=args.jobs,
            use_shm=_use_shm(args),
        ),
    )
    for fps in config.fps_list:
        label = {30: "fig5", 10: "fig6"}.get(fps, f"rd@{fps}fps")
        timed(f"{label} report", lambda f=fps: print(sweep.as_text(f)))
        print("\n" + "=" * 70 + "\n")

    def table1_report() -> None:
        table = run_table1(config, sweep=sweep)
        print(table.as_text())
        print(f"\nmax reduction vs FSBM: {table.max_reduction():.1%}")

    timed("table1", table1_report)
    print("\n" + "=" * 70 + "\n")

    def streaming_report() -> None:
        _stream_stage(config.sequences[0], min(args.frames, 6), config.qps[0], args.seed)

    timed("streaming", streaming_report)
    total = sum(stage_span.duration_s for _, stage_span in timings)
    width = max(len(label) for label, _ in timings)
    print("\n== wall-clock summary ==", file=sys.stderr)
    for label, stage_span in timings:
        print(f"  {label:<{width}}  {stage_span.duration_s:8.2f}s", file=sys.stderr)
    print(f"  {'total':<{width}}  {total:8.2f}s  (--jobs {args.jobs})", file=sys.stderr, flush=True)
    if trace.TRACER.enabled:
        trace.TRACER.adopt(stage_tracer.drain())


def cmd_report(args: argparse.Namespace) -> int:
    """Per-frame breakdown tables from a recorded ``--trace`` file."""
    try:
        data = load_trace(args.trace_file)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(render_report(data["traceEvents"]))
    return 0


def _add_backend_option(target: argparse.ArgumentParser) -> None:
    target.add_argument(
        "--backend", choices=("auto", "numpy", "numba"), default=None,
        help="kernel backend for every hot loop (overrides the "
        "REPRO_BACKEND environment variable; 'numba' errors when numba "
        "is not installed, 'auto' falls back to numpy silently)",
    )


def _add_obs_options(target: argparse.ArgumentParser) -> None:
    target.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record a Chrome trace-event JSON timeline of the run to FILE "
        "(open in chrome://tracing or Perfetto; worker processes merge in "
        "as their own lanes; inspect with the 'report' subcommand)",
    )
    target.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="dump the metrics registry (frames, bits by syntax element, "
        "SAD evaluations, cache hits, queue depths, ...) as JSON to FILE",
    )


def build_parser() -> argparse.ArgumentParser:
    # Shared options live on a parent parser attached to every
    # subcommand, so they are written *after* the command name
    # (`runner table1 --frames 21`); nargs="+" options would otherwise
    # swallow the command word.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--frames", type=int, default=21, help="30fps source frames per clip")
    common.add_argument("--seed", type=int, default=0, help="synthesis seed")
    common.add_argument("--verbose", action="store_true", help="print per-encode progress")
    common.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes sharding the experiment's job list "
        "(default 1 = in-process; output is byte-identical for any N)",
    )
    common.add_argument(
        "--sequences", nargs="+", default=None, metavar="NAME",
        help="subset of sequences (default: the paper's four)",
    )
    common.add_argument(
        "--qps", nargs="+", type=int, default=None, metavar="QP",
        help="subset of quantizer steps (default: 30 28 ... 16)",
    )
    common.add_argument(
        "--fps", nargs="+", type=int, default=None, metavar="FPS",
        help="frame rates to sweep (default: 30 10)",
    )
    common.add_argument(
        "--shm", action=argparse.BooleanOptionalAction, default=None,
        help="transport for parallel runs: --shm forces the shared-memory "
        "path, --no-shm forces pickling; default is automatic (shm whenever "
        "workers spawn).  Output is byte-identical in every mode",
    )
    _add_backend_option(common)
    _add_obs_options(common)
    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner",
        description="Regenerate the tables/figures of Lopez et al., DATE 2005.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("fig4", parents=[common], help="Fig. 4 characterization scatter classes")
    sub.add_parser("fig5", parents=[common], help="Fig. 5 RD curves, QCIF @ 30 fps")
    sub.add_parser("fig6", parents=[common], help="Fig. 6 RD curves, QCIF @ 10 fps")
    sub.add_parser("table1", parents=[common], help="Table 1 search-cost table")
    sub.add_parser("all", parents=[common], help="everything, sharing one sweep")
    stream_encode = sub.add_parser(
        "stream-encode",
        help="encode a raw YUV file incrementally (bounded memory, bytes out "
        "as each picture closes)",
    )
    stream_encode.add_argument(
        "--from-yuv", required=True, metavar="PATH",
        help="raw planar 4:2:0 input file",
    )
    stream_encode.add_argument(
        "--geometry", type=parse_geometry, default="qcif", metavar="G",
        help="frame geometry of the YUV file: qcif, cif or WxH (default qcif)",
    )
    stream_encode.add_argument(
        "--out", default="-", metavar="PATH",
        help="bitstream output file ('-' = stdout, the default)",
    )
    stream_encode.add_argument("--qp", type=int, default=16, help="quantizer step (1..31)")
    stream_encode.add_argument(
        "--estimator", default="tss", metavar="NAME",
        help="registry name of the motion search (default tss)",
    )
    stream_encode.add_argument(
        "--bitstream-version", type=int, default=2, choices=(1, 2), metavar="V",
        help="wire format (default 2: the streaming-decodable framed format)",
    )
    stream_encode.add_argument(
        "--max-frames", type=int, default=None, metavar="N",
        help="encode at most N frames of the file",
    )
    stream_encode.add_argument(
        "--i-period", type=int, default=None, metavar="N",
        help="open a new GOP (I-frame) every N frames (default: only frame 0)",
    )
    stream_encode.add_argument(
        "--n-ref-frames", type=int, default=1, metavar="N",
        help="reference frames each P-frame may select from (default 1)",
    )
    _add_backend_option(stream_encode)
    _add_obs_options(stream_encode)
    stream_decode = sub.add_parser(
        "stream-decode",
        help="push-decode a v2 bitstream in fixed-size chunks (bounded memory)",
    )
    stream_decode.add_argument(
        "input", help="bitstream file ('-' = stdin)",
    )
    stream_decode.add_argument(
        "--chunk-size", type=int, default=65536, metavar="N",
        help="bytes per feed (default 65536; any value decodes identically)",
    )
    stream_decode.add_argument(
        "--out", default=None, metavar="PATH",
        help="write decoded frames as raw planar 4:2:0 to this file",
    )
    stream_decode.add_argument(
        "--max-buffered", type=int, default=2, metavar="N",
        help="decoded-frame buffer depth (default 2)",
    )
    stream_decode.add_argument(
        "--verify", action="store_true",
        help="also decode the whole buffer at once and fail unless the "
        "streamed frames are bit-identical (the CI smoke)",
    )
    stream_decode.add_argument(
        "--pipeline", choices=("off", "thread", "process"), default="off",
        help="overlap symbol parse and reconstruction on a worker thread or "
        "spawned process (default off; output is bit-identical either way)",
    )
    _add_backend_option(stream_decode)
    _add_obs_options(stream_decode)
    gop_encode = sub.add_parser(
        "gop-encode", parents=[common],
        help="encode with GOP structure (i_Period I-frames, multi-reference); "
        "--jobs N encodes GOPs in parallel, byte-identical to serial",
    )
    gop_encode.add_argument(
        "--out", required=True, metavar="PATH", help="bitstream output file",
    )
    gop_encode.add_argument(
        "--i-period", type=int, required=True, metavar="N",
        help="open a new GOP (I-frame) every N frames",
    )
    gop_encode.add_argument(
        "--n-ref-frames", type=int, default=1, metavar="N",
        help="reference frames each P-frame may select from (default 1)",
    )
    gop_encode.add_argument(
        "--estimator", default="tss", metavar="NAME",
        help="registry name of the motion search (default tss)",
    )
    seek = sub.add_parser(
        "seek-decode",
        help="random access: decode a v2 stream from an I-frame onward",
    )
    seek.add_argument("input", help="bitstream file")
    seek.add_argument(
        "--frame", type=int, default=None, metavar="N",
        help="keyframe to seek to (default: the middle keyframe)",
    )
    seek.add_argument(
        "--verify", action="store_true",
        help="also decode the whole stream and fail unless the seeked tail "
        "is bit-identical (the CI smoke)",
    )
    _add_backend_option(seek)
    _add_obs_options(seek)
    report = sub.add_parser(
        "report",
        help="per-frame timing/bits breakdown table from a --trace file",
    )
    report.add_argument("trace_file", help="trace JSON recorded with --trace")
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "fig4":
        cmd_fig4(args)
    elif args.command == "fig5":
        cmd_rd(args, fps=30)
    elif args.command == "fig6":
        cmd_rd(args, fps=10)
    elif args.command == "table1":
        cmd_table1(args)
    elif args.command == "all":
        cmd_all(args)
    elif args.command == "stream-encode":
        return cmd_stream_encode(args)
    elif args.command == "stream-decode":
        return cmd_stream_decode(args)
    elif args.command == "gop-encode":
        return cmd_gop_encode(args)
    elif args.command == "seek-decode":
        return cmd_seek_decode(args)
    elif args.command == "report":
        return cmd_report(args)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "backend", None) is not None:
        from repro.kernels import set_backend

        try:
            set_backend(args.backend)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    if trace_path:
        trace.TRACER.enable()
    try:
        return _dispatch(args)
    finally:
        # Both files write even when the command fails partway — a
        # partial trace of a failed run is exactly the artifact to have.
        if trace_path:
            trace.TRACER.disable()
            write_trace(trace_path, trace.TRACER.drain())
            print(f"trace -> {trace_path}", file=sys.stderr)
        if metrics_path:
            write_metrics(metrics_path, obs_metrics.REGISTRY)
            print(f"metrics -> {metrics_path}", file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
