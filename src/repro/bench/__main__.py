"""CLI for the pipeline micro-benchmark: ``python -m repro.bench``."""

from __future__ import annotations

import argparse
import json
import sys

from . import DEFAULT_OUT, run_bench

__all__ = ["main"]


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Benchmark the simulation/attack pipeline.",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small scenario (2 classes x 8 runs) suitable for CI",
    )
    parser.add_argument(
        "--out", default=DEFAULT_OUT,
        help=f"report path (default: {DEFAULT_OUT})",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="fail unless the batched/auto legs clear their speedup "
        "floors, the cache replay hits every session, and the packed-group "
        "store replay clears its floor",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="persistent root for the cached-replay leg and the store "
        "micro-bench (default: a temporary directory)",
    )
    args = parser.parse_args(argv)
    report = run_bench(
        out_path=args.out, smoke=args.smoke,
        check=args.check, cache_dir=args.cache_dir,
    )
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
