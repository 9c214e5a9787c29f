#!/usr/bin/env python3
"""Seed-to-seed spread of every end-to-end metric (the acceptance check).

    python3 perf/spread.py [--seeds 0-9] [--seconds 6] [--workload NAME]

Runs ``perf/run.py --trace 0`` once per seed and workload, then prints,
per workload and metric, the median and the interquartile range as a
share of the median (``statistics.quantiles(values, n=4)``), next to the
metric's bound from BENCHMARK.json.  A spread above a third of its bound
is flagged: the benchmark is only a ruler while seeds agree that well.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9", help="first-last, inclusive")
    parser.add_argument("--seconds", default="6")
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    first, last = (int(s) for s in args.seeds.split("-"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    flagged = 0
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values = {name: [] for name in bounds}
        for seed in range(first, last + 1):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perf" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
                capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"== {workload}: seeds {first}..{last}")
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            wide = spread > bounds[name] / 3 and name != "setup_s"
            flagged += wide
            print(f"{name:<22} median {median:>14.8g}  spread {spread:8.4f}  "
                  f"bound {bounds[name]:<6} distinct {len(set(series)):>2}"
                  f"{'  WIDE' if wide else ''}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
