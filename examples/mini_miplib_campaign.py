"""Solve the whole mini-MIPLIB under the paper's recommended strategy.

A ParaSCIP-style campaign table: every registered instance solved with
branch-and-cut on the simulated strategy-2 platform, reporting size,
status, objective, tree size and simulated makespan.

Run:  python examples/mini_miplib_campaign.py
"""

from repro.mip.solver import BranchAndBoundSolver, SolverOptions
from repro.problems.miplib import MINI_MIPLIB, instance_by_name
from repro.reporting import format_seconds, render_table
from repro.strategies.engine import CpuOrchestratedEngine

NODE_LIMIT = 4000

rows = []
for name in sorted(MINI_MIPLIB):
    problem = instance_by_name(name)
    engine = CpuOrchestratedEngine()
    result = BranchAndBoundSolver(
        problem,
        SolverOptions(cut_rounds=2, node_limit=NODE_LIMIT),
        engine=engine,
    ).solve()
    rows.append(
        (
            name,
            problem.n,
            problem.num_integer,
            result.status.value,
            "-" if result.x is None else f"{result.objective:.6g}",
            result.stats.nodes_processed,
            result.stats.cuts_added,
            format_seconds(engine.elapsed_seconds),
        )
    )

print(
    render_table(
        ["instance", "vars", "int", "status", "objective", "nodes", "cuts", "sim time"],
        rows,
        title=f"mini-MIPLIB campaign — strategy 2 (V100), node limit {NODE_LIMIT}",
    )
)

solved = sum(1 for r in rows if r[3] == "optimal")
print(f"\nsolved to optimality: {solved}/{len(rows)}")
