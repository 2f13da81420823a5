#!/usr/bin/env python3
"""Run one workload several times, each in a fresh process, and print the spread.

    python3 perfbench/repeat.py --workload stream_one_key_1024 --runs 10 --first-seed 1

Each run uses its own seed (first-seed, first-seed+1, ...).  For every
metric the table gives the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (Q3 - Q1) / median,
next to the bound in BENCHMARK.json.  A spread above a third of its bound is
flagged: the benchmark is not steady enough for that bound.  The last line
is a JSON object with the raw values per metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    values: dict[str, list[float]] = {}
    failed = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, check=True)
        result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)

    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = " !" if bound is not None and spread > bound / 3 else ""
        print(f"{name:40s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} "
              f"{'' if bound is None else bound:>6}{flag}")
    print(json.dumps({"workload": args.workload, "failed": failed, "values": values}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
