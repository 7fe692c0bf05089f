#!/usr/bin/env python3
"""brandlink benchmark: per-mode link latency, set-up time, memory, and a layer trace.

Run one workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload head --seed 1 --seconds 50 --trace 0

Run every workload, untraced and then traced, each in its own process:

    python3 perfbench/run.py --seed 1

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits non-zero before measuring anything.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("head", "tail", "wide")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "smoke"), default="full",
        help="smoke: tiny corpora, for testing the benchmark itself",
    )
    parser.add_argument("--prepare", action="store_true", help=argparse.SUPPRESS)
    return parser


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, untraced then traced; a summary at the end."""
    summary = {}
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [
                sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace), "--size", args.size,
            ]
            child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
            sys.stdout.write(child.stdout)
            lines = child.stdout.strip().splitlines()
            if child.returncode != 0:
                status = 1
            if lines and lines[-1].startswith("{"):
                summary[f"{workload}/trace{trace}"] = json.loads(lines[-1])
    print("\nsummary")
    for key, result in summary.items():
        print(
            f"  {key:<14} correct {result['correct']}"
            f"  failed {result['failed']}/{result['attempted']}"
        )
        for name, metric in result["metrics"].items():
            print(f"    {name:<40} {metric['value']:>14.6f} {metric['unit']}")
    return status


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "brandlink" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.prepare:
        import workloads

        workloads.prepare(args.size)
        return 0
    if args.workload is None:
        return _run_all(args)
    import harness

    return harness.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.size
    )


if __name__ == "__main__":
    sys.exit(main())
