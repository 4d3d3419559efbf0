"""Benchmark entry point.

    python3 perfbench/run.py --workload acbm-qcif --seed 0 --seconds 20 --trace 0

Run from the repository root.  Prints a human-readable report, then, as
the last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).  Exits non-zero without a result
when the codec sources (``src/repro``) are not next to this directory.

Pool workers spawn by re-importing this file, so it imports nothing from
the codec or the benchmark at module level.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="acbm-qcif, gop-multiref-2w or stream-decode-cif")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: codec sources not found at {src}/repro", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(root)]

    from perfbench.harness import run
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (choose from {', '.join(WORKLOADS)})")
    lines, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    # Shared-memory transport starts multiprocessing's resource tracker;
    # stop it and wait for it so no process outlives the run.
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
