"""E2 — §3: comparison of the four parallel execution strategies.

Claim reproduced: strategies 2 (CPU-orchestrated) and 3 (hybrid) are the
effective designs; strategy 1 (entirely-GPU) pays SIMD-hostile tree
management; strategy 4 (Big-MIP) pays a communication tax and only makes
sense when the LP matrix exceeds one device's memory — which the second
half of the experiment demonstrates by footprint accounting.
"""

import math

import pytest

from repro.api import SolveOptions, solve
from repro.device.spec import V100
from repro.mip.result import MIPStatus
from repro.problems.knapsack import generate_knapsack
from repro.problems.random_mip import generate_random_mip
from repro.reporting import format_bytes, format_seconds, render_table
from repro.strategies.registry import metered_strategies

INSTANCES = [
    ("knapsack-16", generate_knapsack(16, seed=4)),
    ("random-12x8", generate_random_mip(12, 8, seed=11, bound=4.0)),
]


def run_comparison():
    rows = []
    for instance_name, problem in INSTANCES:
        reports = {}
        for strategy in metered_strategies():
            reports[strategy] = solve(problem, SolveOptions(strategy=strategy))
        objectives = [r.objective for r in reports.values()]
        assert all(
            math.isclose(o, objectives[0], rel_tol=1e-6) for o in objectives
        ), "strategies disagree"
        for strategy, rep in sorted(reports.items()):
            platform = rep.metrics["platform"]
            rows.append(
                (
                    instance_name,
                    strategy,
                    format_seconds(rep.makespan_seconds),
                    platform["kernels"],
                    platform["h2d"] + platform["d2h"],
                    format_bytes(platform["mem_peak_bytes"]),
                    f"{platform['energy_joules'] * 1e3:.3g} mJ",
                    rep.nodes,
                )
            )
        # Sanity of the paper's ranking on each instance.
        assert (
            reports["cpu_orchestrated"].makespan_seconds
            < reports["gpu_only"].makespan_seconds
        )
        assert (
            reports["cpu_orchestrated"].makespan_seconds
            < reports["big_mip_4"].makespan_seconds
        )
    return rows


def over_memory_analysis():
    """Strategy 4's raison d'être: a matrix larger than one device."""
    rows = []
    for m in (20_000, 60_000, 200_000):
        matrix_bytes = m * 2 * m * 8  # m rows, 2m columns, fp64
        single_fits = matrix_bytes <= V100.mem_capacity
        shards_needed = -(-matrix_bytes // V100.mem_capacity)
        rows.append(
            (
                f"{m}x{2 * m}",
                format_bytes(matrix_bytes),
                "fits" if single_fits else "OOM",
                max(1, shards_needed),
            )
        )
    return rows


def test_e2_strategy_comparison(benchmark, report):
    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    table = render_table(
        ["instance", "strategy", "makespan", "kernels", "transfers", "dev-mem", "energy", "nodes"],
        rows,
        title="E2 — strategy comparison (same search, metered platforms)",
    )
    memory = render_table(
        ["LP matrix", "bytes", "single V100", "devices needed"],
        over_memory_analysis(),
        title="E2b — when Big-MIP becomes necessary (V100 = 16 GiB)",
    )
    report.add("E2_strategy_comparison", table + "\n\n" + memory)
