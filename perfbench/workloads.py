"""The benchmark's three workloads.

Each is a closed loop: one caller in one process issues a call, waits
for its result, checks it and issues the next.  Inputs are synthesised
from the run's seed, so a seed fixes every byte the codec sees.  See
``README.md`` for why each workload exists and which layers it loads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

from repro.codec.bitstream import BitWriter
from repro.codec.decoder import decode_bitstream
from repro.codec.encoder import EncodeResult, Encoder, encode_sequence
from repro.parallel.gop import encode_sequence_parallel
from repro.streaming import StreamDecoder
from repro.video.frame import CIF, QCIF
from repro.video.synthesis.sequences import make_sequence


@dataclass
class Tally:
    """What the calls of one run measured and how their checks went."""

    #: Per-frame latency samples in milliseconds, one list per pass
    #: (setups count as encode passes when they encode).
    encode_ms: list[list[float]] = field(default_factory=list)
    decode_ms: list[list[float]] = field(default_factory=list)
    #: Frames per second of each pass: its frames / its calls' time.
    encode_pass_fps: list[float] = field(default_factory=list)
    decode_pass_fps: list[float] = field(default_factory=list)
    encode_frames: int = 0
    decode_frames: int = 0
    #: Wall time of every codec call the workload timed, checks included.
    calls_s: float = 0.0
    #: Frames that went through the process pool.
    pool_frames: int = 0
    #: Records of the frames encoded in this process.
    records: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: The open pass: latency samples and call seconds per side.
    _open_ms: dict = field(default_factory=lambda: {"encode": [], "decode": []})
    _open_s: dict = field(default_factory=lambda: {"encode": 0.0, "decode": 0.0})

    def _add(self, side: str, seconds: float, latency_ms: list[float]) -> None:
        self._open_ms[side].extend(latency_ms)
        self._open_s[side] += seconds
        self.calls_s += seconds

    def encoded(self, seconds: float, frames: int = 1) -> None:
        """One encode call that produced ``frames`` frames; a call that
        returns many frames at once gives each its amortized share."""
        self.encode_frames += frames
        self._add("encode", seconds, [1000.0 * seconds / frames] * frames)

    def decoded(self, seconds: float, frames: int, latency_ms: list[float] | None = None) -> None:
        """Decode calls that produced ``frames`` frames in ``seconds``;
        without per-frame ``latency_ms`` each frame gets its amortized share."""
        self.decode_frames += frames
        if latency_ms is None:
            latency_ms = [1000.0 * seconds / max(frames, 1)] * frames
        self._add("decode", seconds, latency_ms)

    def end_pass(self, scale: float = 1.0) -> None:
        """Close the open pass, its times multiplied by ``scale``: keep
        its samples and record its rates."""
        for side, passes, rates in (("encode", self.encode_ms, self.encode_pass_fps),
                                    ("decode", self.decode_ms, self.decode_pass_fps)):
            samples = self._open_ms[side]
            if samples:
                passes.append([scale * ms for ms in samples])
                rates.append(len(samples) / (scale * self._open_s[side]))
            self._open_ms[side], self._open_s[side] = [], 0.0

    def check(self, ok: bool, ops: int, what: str) -> None:
        """Count ``ops`` attempted operations, all failed unless ``ok``."""
        self.attempted += ops
        if not ok:
            self.failed += ops
            self.failures.append(what)


def frames_equal(got, expected) -> bool:
    return len(got) == len(expected) and all(a == b for a, b in zip(got, expected))


def quality(records, fps: float) -> dict[str, float]:
    """Mean luma PSNR, rate and search positions per macroblock of the
    encoded frames, as :class:`EncodeResult` defines them."""
    result = EncodeResult(name="", qp=0, estimator_name="", fps=fps, frames=list(records),
                          bitstream=b"")
    return {
        "psnr_y_db": result.mean_psnr_y,
        "rate_kbps": result.rate_kbps,
        "positions_per_mb": result.avg_positions_per_mb,
    }


def encode_frames(encoder: Encoder, sequence, tally: Tally):
    """Encode ``sequence`` one ``encode_frame_into`` call per frame,
    timing each call; returns ``(bitstream, reconstruction, records)``."""
    writer = BitWriter()
    references: list = []
    prev_field = None
    reconstruction, records = [], []
    for position, frame in enumerate(sequence):
        start = perf_counter()
        record, recon, prev_field = encoder.encode_frame_into(
            writer, frame, position, references, prev_field
        )
        tally.encoded(perf_counter() - start)
        references = encoder.advance_references(references, record, recon)
        reconstruction.append(recon)
        records.append(record)
    tally.records.extend(records)
    return writer.getvalue(), reconstruction, records


class AcbmQcif:
    """The paper's own path: serial seed-syntax encode with ACBM."""

    name = "acbm-qcif"
    why = ("the paper's path: serial v1 ACBM encode (p=15, Qp 16) of QCIF foreman "
           "and miss_america; loads ME, transform and entropy, no pool")
    SEQUENCES = ("foreman", "miss_america")
    TAIL_CAP = 75.0

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.frames = 3 if tiny else 10
        self.records: list = []
        self._bytes: dict[str, bytes] = {}

    def setup(self, tally: Tally) -> None:
        self.sequences = [make_sequence(n, frames=self.frames, seed=self.seed, geometry=QCIF)
                          for n in self.SEQUENCES]
        self.fps = self.sequences[0].fps

    def verify(self, tally: Tally) -> None:
        """Every pass checks its own output (see :meth:`run_pass`)."""

    def run_pass(self, tally: Tally) -> None:
        records = []
        for sequence in self.sequences:
            encoder = Encoder(estimator="acbm", qp=16, estimator_kwargs={"p": 15})
            stream, reconstruction, seq_records = encode_frames(encoder, sequence, tally)
            records.extend(seq_records)
            start = perf_counter()
            decoded = decode_bitstream(stream)
            tally.decoded(perf_counter() - start, len(decoded))
            n = len(sequence)
            tally.check(stream == self._bytes.setdefault(sequence.name, stream), n,
                        f"{sequence.name}: encoded bytes differ between passes")
            tally.check(frames_equal(decoded, reconstruction), n,
                        f"{sequence.name}: decoded frames differ from the encoder's reconstruction")
        self.records = records


class GopMultiref:
    """GOP encode across two worker processes, then parallel-parse decode."""

    name = "gop-multiref-2w"
    why = ("2-worker GOP encode (ntss, i_period 8, 4 references, v2, shm) and 2-worker "
           "parse decode of QCIF foreman; the only workload on the pool")
    JOBS = 2
    TAIL_CAP = 75.0

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.frames = 4 if tiny else 32
        self.config = dict(qp=16, estimator="ntss", i_period=2 if tiny else 8, n_ref_frames=4)
        self.records: list = []

    def setup(self, tally: Tally) -> None:
        self.sequence = make_sequence("foreman", frames=self.frames, seed=self.seed, geometry=QCIF)
        self.fps = self.sequence.fps

    def verify(self, tally: Tally) -> None:
        """The serial encode every parallel pass must reproduce."""
        start = perf_counter()
        self.serial = encode_sequence(
            self.sequence, bitstream_version=2, keep_reconstruction=True, **self.config
        )
        tally.calls_s += perf_counter() - start
        tally.records.extend(self.serial.frames)

    def run_pass(self, tally: Tally) -> None:
        n = len(self.sequence)
        start = perf_counter()
        result = encode_sequence_parallel(self.sequence, jobs=self.JOBS, use_shm=True, **self.config)
        tally.encoded(perf_counter() - start, n)
        start = perf_counter()
        decoded = decode_bitstream(result.bitstream, jobs=self.JOBS)
        tally.decoded(perf_counter() - start, len(decoded))
        tally.pool_frames += 2 * n
        tally.check(result.bitstream == self.serial.bitstream, n,
                    "2-worker GOP bytes differ from the serial encode")
        tally.check(frames_equal(decoded, self.serial.reconstruction), n,
                    "2-worker decode differs from the serial encoder's reconstruction")
        self.records = list(result.frames)


class StreamDecodeCif:
    """Push-decode of a dense CIF stream in network-sized chunks."""

    name = "stream-decode-cif"
    why = ("push-decode of a CIF carphone v2 stream at Qp 8 through StreamDecoder in "
           "1500-byte chunks; no encoder, ME or pool in the timed loop")
    CHUNK = 1500
    TAIL_CAP = 95.0

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.frames = 3 if tiny else 10
        self.geometry = QCIF if tiny else CIF
        self.peak_buffered_bytes = 0
        self.stalls = 0
        self.sessions = 0

    def setup(self, tally: Tally) -> None:
        """Synthesise and encode the stream; the encode is timed frame
        by frame, which is where this workload's encode metrics come from."""
        sequence = make_sequence("carphone", frames=self.frames, seed=self.seed,
                                 geometry=self.geometry)
        self.fps = sequence.fps
        encoder = Encoder(estimator="acbm", qp=8, bitstream_version=2)
        self.stream, self.reconstruction, self.records = encode_frames(encoder, sequence, tally)

    def verify(self, tally: Tally) -> None:
        """The whole-buffer decode every stream pass must reproduce."""
        start = perf_counter()
        self.reference = decode_bitstream(self.stream)
        tally.calls_s += perf_counter() - start
        tally.check(frames_equal(self.reference, self.reconstruction), len(self.reference),
                    "whole-buffer decode differs from the encoder's reconstruction")

    def run_pass(self, tally: Tally) -> None:
        stream, chunk = self.stream, self.CHUNK
        decoder = StreamDecoder()
        # completed[i]: when the feed() that completed frame i's payload began.
        completed: list[float] = []
        out, latency_ms = [], []

        def drain() -> None:
            for frame in decoder.frames():
                latency_ms.append(1000.0 * (perf_counter() - completed[len(out)]))
                out.append(frame)

        start = perf_counter()
        for offset in range(0, len(stream), chunk):
            fed_at = perf_counter()
            decoder.feed(stream[offset:offset + chunk])
            completed.extend([fed_at] * (decoder.frames_scanned - len(completed)))
            drain()
        closed_at = perf_counter()
        decoder.close()
        completed.extend([closed_at] * (decoder.frames_scanned - len(completed)))
        drain()
        tally.decoded(perf_counter() - start, len(out), latency_ms)
        tally.check(frames_equal(out, self.reference), len(self.reference),
                    "stream-decoded frames differ from the whole-buffer decode")
        self.peak_buffered_bytes = max(self.peak_buffered_bytes, decoder.peak_buffered_bytes)
        self.stalls += decoder.stalls
        self.sessions += 1


WORKLOADS = {w.name: w for w in (AcbmQcif, GopMultiref, StreamDecodeCif)}
