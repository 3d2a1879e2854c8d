"""CLI for telemetry streams: ``python -m repro.telemetry <command>``.

* ``summarize <file...>`` — render per-run tables (ops event counts by
  type, metric snapshots) from ``ops.jsonl`` files or ``metrics.json``
  snapshots.
* ``overhead <off.json> <on.json>`` — compare two BENCH_pipeline.json
  reports and fail when the telemetry-on run regresses the summed phase
  timings beyond the budget (the CI overhead gate).

``summarize`` also accepts a telemetry dir and reads its ``ops.jsonl``
and ``metrics.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

__all__ = ["main"]


def _read_lines(path: Path) -> list:
    return path.read_text(encoding="utf-8").splitlines()


def _parse(line: str) -> dict:
    try:
        payload = json.loads(line)
    except json.JSONDecodeError:
        return {}
    return payload if isinstance(payload, dict) else {}


# --------------------------------------------------------------------------
# summarize
# --------------------------------------------------------------------------


def _summarize_jsonl(path: Path) -> None:
    counts: dict = {}
    for line in _read_lines(path):
        payload = _parse(line)
        if payload.get("type") == "ops":
            name = str(payload.get("ev", "?"))
            counts[name] = counts.get(name, 0) + 1
    print(f"== {path}")
    if counts:
        print("  events by type:")
        for name in sorted(counts):
            print(f"    {name:<24} {counts[name]}")


def _summarize_metrics(path: Path) -> None:
    payload = json.loads(path.read_text(encoding="utf-8"))
    print(f"== {path}")
    for name, value in payload.get("counters", {}).items():
        print(f"  counter {name:<32} {value}")
    for name, value in payload.get("gauges", {}).items():
        print(f"  gauge   {name:<32} {value:.6g}")
    for name, histogram in payload.get("histograms", {}).items():
        print(
            f"  hist    {name:<32} count={histogram.get('count')} "
            f"sum={histogram.get('sum'):.6g}"
        )
        edges = histogram.get("edges", [])
        counts = histogram.get("counts", [])
        labels = [f"<={edge:g}" for edge in edges] + [f">{edges[-1]:g}" if edges else ">"]
        for label, n in zip(labels, counts):
            if n:
                print(f"          {label:<10} {n}")


def _cmd_summarize(args: argparse.Namespace) -> int:
    status = 0
    for name in args.files:
        path = Path(name)
        if path.is_dir():
            # A telemetry dir: summarize its ops stream and snapshot.
            targets = [
                path / artifact
                for artifact in ("ops.jsonl", "metrics.json")
                if (path / artifact).is_file()
            ]
            if not targets:
                print(f"error: no telemetry artifacts under {path}", file=sys.stderr)
                status = 2
                continue
        elif path.is_file():
            targets = [path]
        else:
            print(f"error: no such file: {path}", file=sys.stderr)
            status = 2
            continue
        for target in targets:
            if target.suffix == ".json":
                _summarize_metrics(target)
            else:
                _summarize_jsonl(target)
    return status


# --------------------------------------------------------------------------
# overhead
# --------------------------------------------------------------------------


def _cmd_overhead(args: argparse.Namespace) -> int:
    baseline = json.loads(Path(args.off).read_text(encoding="utf-8"))
    candidate = json.loads(Path(args.on).read_text(encoding="utf-8"))
    timings_off = baseline.get("timings", {})
    timings_on = candidate.get("timings", {})
    shared = sorted(set(timings_off) & set(timings_on))
    if not shared:
        print("error: the reports share no timing phases", file=sys.stderr)
        return 2
    total_off = sum(float(timings_off[name]) for name in shared)
    total_on = sum(float(timings_on[name]) for name in shared)
    for name in shared:
        off_s, on_s = float(timings_off[name]), float(timings_on[name])
        ratio = on_s / off_s if off_s > 0 else float("inf")
        print(f"  {name:<24} off={off_s:8.3f}s on={on_s:8.3f}s ratio={ratio:5.2f}")
    budgeted = total_off * (1.0 + args.budget) + args.slack_s
    verdict = "within" if total_on <= budgeted else "EXCEEDS"
    print(
        f"total: off={total_off:.3f}s on={total_on:.3f}s "
        f"budget={budgeted:.3f}s ({args.budget:.0%} + {args.slack_s:g}s slack) "
        f"-> {verdict}"
    )
    return 0 if total_on <= budgeted else 1


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def main(argv: "list | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Summarize and budget-check telemetry.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    summarize = commands.add_parser(
        "summarize", help="render per-run tables from telemetry files"
    )
    summarize.add_argument(
        "files", nargs="+",
        help="ops.jsonl files, metrics.json snapshots, or telemetry dirs",
    )
    summarize.set_defaults(fn=_cmd_summarize)

    overhead = commands.add_parser(
        "overhead", help="gate a telemetry-on bench report against a budget"
    )
    overhead.add_argument("off", help="BENCH json of the telemetry-off run")
    overhead.add_argument("on", help="BENCH json of the telemetry-on run")
    overhead.add_argument(
        "--budget", type=float, default=0.10,
        help="allowed fractional regression of summed phase timings",
    )
    overhead.add_argument(
        "--slack-s", type=float, default=0.5,
        help="absolute slack added to the budget (absorbs timer noise)",
    )
    overhead.set_defaults(fn=_cmd_overhead)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
