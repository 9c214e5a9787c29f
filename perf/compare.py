#!/usr/bin/env python3
"""Compare two ledgers against the benchmark's bounds.

    python3 perf/compare.py old/ledger.json new/ledger.json

Per workload and end-to-end metric: old, new, the ratio new/old (base:
old) and ``worse`` / ``ok`` / ``better`` against the metric's bound in
BENCHMARK.json.  Exits non-zero on any ``worse`` row or when a workload
fails more ops than before.  Host-clock rows other than ``setup_s`` are
not end-to-end metrics here; read them from the per-layer block.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict

ROOT = Path(__file__).resolve().parent.parent


def verdict(old: float, new: float, better: str, bound: float) -> str:
    """Where ``new`` stands relative to ``old`` given the allowed worsening."""
    if better == "lower":
        old, new = -old, -new
    margin = bound * abs(old)
    if new < old - margin:
        return "worse"
    if new > old + margin:
        return "better"
    return "ok"


def compare(old: Dict[str, Any], new: Dict[str, Any], spec: Dict[str, Any]) -> int:
    """Print the table; return the number of regressions."""
    regressions = 0
    for name in old["workloads"]:
        if name not in new["workloads"]:
            continue
        a, b = old["workloads"][name], new["workloads"][name]
        print(f"== {name}")
        for metric in spec["end_to_end"]:
            key = metric["name"]
            if key not in a.get("end_to_end", {}) or key not in b.get("end_to_end", {}):
                continue
            before, after = a["end_to_end"][key]["value"], b["end_to_end"][key]["value"]
            word = verdict(before, after, metric["better"], metric["bound"])
            regressions += word == "worse"
            ratio = after / before if before else float("nan")
            print(f"{key:<22} old {before:>14.8g}  new {after:>14.8g}  "
                  f"new/old {ratio:7.4f} (base {before:.6g} {metric['unit']})  "
                  f"bound {metric['bound']:<6} {word}")
        if b["failed"] > a["failed"]:
            regressions += 1
            print(f"failed ops              old {a['failed']}  new {b['failed']}  worse")
    return regressions


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.loads(Path(p).read_text()) for p in sys.argv[1:])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if old.get("seed") != new.get("seed"):
        print(f"note: seeds differ ({old.get('seed')} vs {new.get('seed')})")
    return 1 if compare(old, new, spec) else 0


if __name__ == "__main__":
    sys.exit(main())
