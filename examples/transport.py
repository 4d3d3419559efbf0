"""Frame transport: shared-memory handles instead of pickled payloads.

Demonstrates the `repro.transport` subsystem on the one path that uses
it, the per-GOP parallel encode:

1. cut a clip into GOPs and build one `GopEncodeJob` per GOP,
2. place the first GOP's planes in a `FrameArena` and compare what
   actually crosses a process boundary: the pickled spec shrinks from
   every plane byte to a handful of ~100-byte `FrameHandle`s,
3. encode with `encode_sequence_parallel(jobs=2, use_shm=True)` — the
   workers read the planes out of shared memory — and verify the
   spliced stream is byte-identical to the serial encode,
4. decode the spliced stream and check it against the whole-buffer
   decode of the serial stream,
5. sweep `/dev/shm` to show nothing outlived the arenas.

Run:
    python examples/transport.py
    python examples/transport.py --frames 12 --qp 16 --i-period 4
"""

import argparse
import glob
import pickle

from repro import make_sequence
from repro.codec.decoder import decode_bitstream
from repro.codec.encoder import Encoder
from repro.parallel import GopEncodeJob, encode_sequence_parallel, split_gops
from repro.transport import FrameArena


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=int, default=6)
    parser.add_argument("--qp", type=int, default=18)
    parser.add_argument("--estimator", default="tss")
    parser.add_argument("--i-period", type=int, default=2)
    # Nothing here is chunked; the option is still accepted so existing
    # command lines run.
    parser.add_argument("--chunk-size", type=int, default=1500, help=argparse.SUPPRESS)
    args = parser.parse_args()

    clip = make_sequence("carphone", frames=args.frames, seed=0)
    geometry = clip.geometry
    gops = split_gops(len(clip), args.i_period)
    print(f"{args.frames} QCIF frames, i_period={args.i_period}: {len(gops)} GOPs "
          f"({args.estimator}, qp={args.qp}, v2)")

    start, end = gops[0]
    job = GopEncodeJob(
        width=geometry.width,
        height=geometry.height,
        start=start,
        planes=tuple(
            (f.y.tobytes(), f.cb.tobytes(), f.cr.tobytes(), f.index)
            for f in list(clip)[start:end]
        ),
        estimator=args.estimator,
        qp=args.qp,
        i_period=args.i_period,
    )
    print("\nWhat one GOP job costs to pickle:")
    with FrameArena(name_prefix="repro-example") as arena:
        packed = job.pack_shm(arena)
        print(f"  planes by value  : {len(pickle.dumps(job)):7d} bytes")
        print(f"  planes by handle : {len(pickle.dumps(packed)):7d} bytes "
              f"({3 * (end - start)} handles: segment name + offset + shape + dtype)")

    print("\nEncoding GOPs on 2 workers through shared memory...")
    serial = Encoder(
        estimator=args.estimator,
        qp=args.qp,
        i_period=args.i_period,
        bitstream_version=2,
        keep_reconstruction=False,
    ).encode(clip)
    shared = encode_sequence_parallel(
        clip,
        qp=args.qp,
        estimator=args.estimator,
        i_period=args.i_period,
        jobs=2,
        use_shm=True,
    )
    print(f"  results identical: {shared.bitstream == serial.bitstream} "
          f"({len(shared.bitstream)} bytes)")

    decoded = decode_bitstream(shared.bitstream, jobs=2)
    whole = decode_bitstream(serial.bitstream)
    identical = len(decoded) == len(whole) and all(a == b for a, b in zip(decoded, whole))
    print(f"\n2-worker decode of the spliced stream, bit-identical to whole-buffer decode: "
          f"{identical}")
    leftovers = glob.glob("/dev/shm/repro-*")
    print(f"/dev/shm leftovers: {leftovers or 'none'}")


if __name__ == "__main__":
    main()
