"""Streaming: bounded-memory encode from disk, push-based decode.

Demonstrates the `repro.streaming` subsystem end to end:

1. write a synthetic clip to a raw YUV file (standing in for a capture
   you cannot hold in memory),
2. encode it straight off the file with `Encoder.encode_frames` —
   frames stream in through `iter_yuv_frames`, and `writer.drain()`
   hands out each picture's bytes as it closes; the whole sequence is
   never materialized,
3. push the version-2 bitstream through a `StreamDecoder` in MTU-sized
   chunks, honouring the backpressure contract (drain `frames()`
   whenever `feed` reports zero demand — here, after every feed),
4. verify the streamed frames are bit-identical to the whole-buffer
   decoder and print the decoder's counters, including the peak
   buffered bytes that stayed bounded while the whole-buffer path held
   everything.

Run:
    python examples/streaming.py
    python examples/streaming.py --frames 12 --chunk-size 512
"""

import argparse
import tempfile
from pathlib import Path

from repro.codec.bitstream import BitWriter
from repro.codec.decoder import decode_bitstream
from repro.codec.encoder import Encoder
from repro.streaming import StreamDecoder
from repro.video.frame import QCIF
from repro.video.yuv_io import frame_size_bytes, iter_yuv_frames, write_yuv
from repro import make_sequence


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=int, default=9)
    parser.add_argument("--qp", type=int, default=18)
    parser.add_argument("--estimator", default="tss")
    parser.add_argument("--chunk-size", type=int, default=1500)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        yuv_path = Path(tmp) / "capture.yuv"
        print(f"Rendering {args.frames} QCIF frames to {yuv_path.name} "
              f"({args.frames * frame_size_bytes(QCIF)} bytes on disk)...")
        write_yuv(yuv_path, make_sequence("carphone", frames=args.frames, seed=0))

        print(f"Stream-encoding off the file ({args.estimator}, qp={args.qp}, v2)...")
        encoder = Encoder(
            estimator=args.estimator, qp=args.qp, keep_reconstruction=False,
            bitstream_version=2,
        )
        writer = BitWriter()
        chunks = []
        for record, _recon in encoder.encode_frames(writer, iter_yuv_frames(yuv_path, QCIF)):
            chunks.append(writer.drain())  # one framed picture per chunk in v2
            print(f"  frame {record.index} ({record.frame_type}): {len(chunks[-1])} bytes")
        chunks.append(writer.getvalue())  # empty in v2; v1's padded last byte
        bitstream = b"".join(chunks)

        print(f"Push-decoding in {args.chunk_size}-byte chunks...")
        decoder = StreamDecoder(max_buffered_frames=2)
        decoded = []
        for start in range(0, len(bitstream), args.chunk_size):
            decoder.feed(bitstream[start : start + args.chunk_size])
            decoded.extend(decoder.frames())  # drain keeps memory bounded
        decoder.close()
        decoded.extend(decoder.frames())
        print(
            f"  decoder: {decoder.frames_decoded} frames from {decoder.bytes_fed} bytes, "
            f"{len(decoder.keyframes)} keyframe(s), {decoder.stalls} stalls"
        )

        whole = decode_bitstream(bitstream)
        identical = len(whole) == len(decoded) and all(
            a == b for a, b in zip(decoded, whole)
        )
        print(f"\nbit-identical to whole-buffer decode: {identical}")
        print(
            f"peak buffered {decoder.peak_buffered_bytes} bytes vs the "
            f"{len(bitstream)}-byte stream plus "
            f"{len(whole) * frame_size_bytes(QCIF)} decoded bytes the "
            f"whole-buffer path holds"
        )


if __name__ == "__main__":
    main()
