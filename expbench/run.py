"""Benchmark entry point.

Run from the root of a source checkout::

    python3 expbench/run.py --workload fig06-smoke --seed 1 --seconds 20 --trace 0

Prints progress to stderr, then two lines on stdout: a JSON report
(provenance, set-up split, tail latency, digests, error against the
paper, oracle result, and with ``--trace 1`` the layer self times and the
workload's prediction), and last the JSON result line
``{"correct", "attempted", "failed", "metrics"}``.  Exits 0 when the run
was correct, 1 when an op or check failed, 2 on bad usage or a checkout
without ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _arguments(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _arguments(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"expbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Import the package as ``expbench``, never its modules by bare name.
    if sys.path and Path(sys.path[0]).resolve() == ROOT / "expbench":
        sys.path.pop(0)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # Must precede the first numpy import.
    from expbench.environment import provenance, sanitize

    cleared = sanitize(os.environ)
    start = time.perf_counter()
    from expbench.workloads import WORKLOADS

    import_s = time.perf_counter() - start
    if args.workload not in WORKLOADS:
        print(f"expbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    from expbench.bench import run_workload

    outcome = run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), ROOT, import_s
    )
    report = {"provenance": provenance(ROOT, args.seed, cleared), **outcome.report}
    print(json.dumps({"report": report}))
    print(json.dumps(outcome.result_line()), flush=True)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
