"""A tour of the paper's four parallel execution strategies (§3).

Solves one MIP under each strategy's metered engine and prints the
platform accounting side by side — the quickest way to see *why* the
paper recommends strategies 2 and 3.

Run:  python examples/strategy_tour.py
"""

from repro.api import SolveOptions, solve
from repro.problems import generate_knapsack
from repro.reporting import format_bytes, format_seconds, render_table

problem = generate_knapsack(16, seed=4)
print(f"instance: {problem.name}\n")

DESCRIPTIONS = {
    "gpu_only": "1: tree + LPs on GPU",
    "cpu_orchestrated": "2: tree on CPU, LPs on GPU",
    "hybrid": "3: CPU+GPU, runtime path choice",
    "big_mip_4": "4: LP sharded over 4 GPUs",
}

rows = []
reports = {}
for strategy in ("gpu_only", "cpu_orchestrated", "hybrid", "big_mip_4"):
    report = solve(problem, SolveOptions(strategy=strategy))
    reports[strategy] = report
    platform = report.metrics["platform"]
    rows.append(
        (
            DESCRIPTIONS[strategy],
            format_seconds(report.makespan_seconds),
            platform["kernels"],
            platform["h2d"] + platform["d2h"],
            format_bytes(platform["bytes_moved"]),
            format_bytes(platform["mem_peak_bytes"]),
        )
    )

print(
    render_table(
        ["strategy", "makespan", "kernels", "transfers", "bytes moved", "device mem"],
        rows,
    )
)

objectives = {round(r.objective, 6) for r in reports.values()}
assert len(objectives) == 1
print(f"\nevery strategy proved the same optimum: {objectives.pop()}")
best = min(reports, key=lambda s: reports[s].makespan_seconds)
print(f"fastest on this (single-device-sized) instance: {DESCRIPTIONS[best]}")
