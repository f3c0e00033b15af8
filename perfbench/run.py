"""The wica-lab benchmark.

    python3 perfbench/run.py --workload paper_d2 --seed 1 --seconds 35 --trace 0

Runs from the root of a source checkout and imports the package from
`src/`.  Prints one text line per metric, digest and check, then, as the
last line, a JSON object with the keys correct, attempted, failed and
metrics.  Exits 1 when an operation or output check failed, 2 when the
package source is missing.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One BLAS thread, fixed before numpy loads: the timed work is single
# threaded and a shared 2-core machine gives steadier figures this way.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    if not (SRC / "wica_lab" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import harness

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*harness.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, print 'ready' and exit (set-up timing)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if args.setup_only:
        if args.workload == "all":
            parser.error("--setup-only needs one workload")
        harness.setup(harness.WORKLOADS[args.workload], args.seed)
        print("ready", flush=True)
        return 0

    names = list(harness.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = harness.run_workload(
            harness.WORKLOADS[name], args.seed, args.seconds, bool(args.trace)
        )
        result.save(args.seed)
        print("\n".join(result.lines()), flush=True)
        results.append(result)
    if len(results) == 1:
        summary = results[0].summary()
    else:
        # several workloads in one process: metric names get the
        # workload as a prefix, and peak_rss_mb is the process's peak so far
        summary = {
            "correct": all(r.correct for r in results),
            "attempted": sum(r.run.attempted for r in results),
            "failed": sum(r.run.failed for r in results),
            "metrics": {
                f"{r.workload}.{k}": v for r in results for k, v in r.summary()["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
