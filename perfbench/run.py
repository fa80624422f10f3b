"""The repo benchmark: one command, three seeded workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hot-key-scale --seed 1 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # every workload,
                                                       # untraced + traced

A single-workload run prints a human-readable report and, as its last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The exit code is 0 only when every correctness check
passed.  ``--workload all`` runs each workload untraced and traced, each
in a fresh interpreter, and prints the tables one after another.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("hot-key-scale", "zipf-churn-lossy", "live-mesh")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _format(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _table(title: str, metrics: dict) -> list:
    width = max(len(name) for name in metrics)
    lines = [title]
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<{width}}  {_format(value):>14}  {unit}")
    return lines


def run_one(args) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "live-mesh":
        from livemesh import measure
    else:
        from simload import measure
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"== {args.workload}  seed={args.seed}  seconds={args.seconds:g}  "
          f"trace={args.trace}")
    for note in result.notes:
        print(f"  {note}")
    print("\n".join(_table("end-to-end metrics:", result.metrics)))
    if result.layers is not None:
        print("\n".join(_table("per-layer metrics (traced run):",
                               result.layers)))
    for failure in result.failures:
        print(f"  CHECK FAILED: {failure}")
    correct = not result.failures
    print(f"correctness: {'all checks passed' if correct else 'FAILED'}")
    chosen = result.layers if args.trace else result.metrics
    for name, (value, _unit) in chosen.items():
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in chosen.items()
        },
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own interpreter."""
    correct = True
    attempted = failed = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, os.path.abspath(__file__),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            child = subprocess.run(command, stdout=subprocess.PIPE,
                                   text=True, check=False)
            lines = child.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]), flush=True)
            try:
                outcome = json.loads(lines[-1])
            except (json.JSONDecodeError, IndexError):
                outcome = {"correct": False, "attempted": 0, "failed": 0}
            correct = correct and child.returncode == 0 and outcome["correct"]
            attempted += outcome["attempted"]
            failed += outcome["failed"]
    print(f"all workloads: {'all checks passed' if correct else 'FAILED'}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": {}}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
