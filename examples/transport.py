"""Frame transport: shared-memory handles instead of pickled payloads.

Demonstrates the `repro.transport` subsystem end to end:

1. encode a clip to a version-2 bitstream and split it into per-frame
   parse jobs,
2. place the payloads in a `FrameArena` and compare what actually
   crosses a process boundary: the pickled spec shrinks from the whole
   payload to a ~200-byte `FrameHandle`,
3. run the parse jobs through the process pool both ways —
   `run_jobs(..., use_shm=True)` against the default pickling
   transport — and verify the results are identical,
4. decode the whole stream with `decode_bitstream(jobs=2,
   use_shm=True)`: the parse jobs' payloads go out and their parsed
   arrays come back as handles, reconstruction runs here,
5. sweep `/dev/shm` to show nothing outlived the arenas.

Run:
    python examples/transport.py
    python examples/transport.py --frames 12 --qp 16
"""

import argparse
import glob
import pickle

from repro import make_sequence
from repro.codec.decoder import FrameIndex, decode_bitstream
from repro.codec.encoder import encode_sequence
from repro.parallel import ParseFrameJob, run_jobs
from repro.transport import FrameArena, FrameStore


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=int, default=6)
    parser.add_argument("--qp", type=int, default=18)
    parser.add_argument("--estimator", default="tss")
    # The decode below is whole-buffer, so chunking no longer applies;
    # the option is still accepted so existing command lines run.
    parser.add_argument("--chunk-size", type=int, default=1500, help=argparse.SUPPRESS)
    args = parser.parse_args()

    print(f"Encoding {args.frames} QCIF frames "
          f"({args.estimator}, qp={args.qp}, v2)...")
    clip = make_sequence("carphone", frames=args.frames, seed=0)
    encode = encode_sequence(
        clip, qp=args.qp, estimator=args.estimator, bitstream_version=2
    )
    index = FrameIndex.scan(encode.bitstream)
    jobs = [
        ParseFrameJob(index.payload(encode.bitstream, i)) for i in range(len(index))
    ]

    print("\nWhat one parse job costs to pickle:")
    with FrameArena(name_prefix="repro-example") as arena:
        plain, packed = jobs[0], jobs[0].pack_shm(FrameStore(arena))
        print(f"  payload by value : {len(pickle.dumps(plain)):6d} bytes")
        print(f"  payload by handle: {len(pickle.dumps(packed)):6d} bytes "
              "(segment name + offset + shape + dtype)")

    print("\nParsing on 2 workers, both transports...")
    pickled = run_jobs(jobs, workers=2)
    shared = run_jobs(jobs, workers=2, use_shm=True)
    print(f"  results identical: {shared == pickled}")

    print("\nDecoding with parse jobs on 2 workers through shared memory...")
    decoded = decode_bitstream(encode.bitstream, jobs=2, use_shm=True)
    whole = decode_bitstream(encode.bitstream)
    identical = len(decoded) == len(whole) and all(
        a == b for a, b in zip(decoded, whole)
    )
    print(f"\nbit-identical to whole-buffer decode: {identical}")
    print(f"transport: {sum(len(job.payload) for job in jobs)} compressed bytes out "
          "and the parsed symbols back as handles; reconstruction ran here, so "
          f"{sum(f.y.nbytes + f.cb.nbytes + f.cr.nbytes for f in decoded)} decoded "
          "bytes were never pickled")
    leftovers = glob.glob("/dev/shm/repro-*")
    print(f"/dev/shm leftovers: {leftovers or 'none'}")


if __name__ == "__main__":
    main()
