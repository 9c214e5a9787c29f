"""Unit commitment: the paper's flagship MIP application, end to end.

Builds a unit-commitment instance (binary on/off + continuous dispatch),
solves it with branch-and-cut, prints the commitment schedule, and then
re-runs the same search under the paper's recommended strategy 2
(CPU-orchestrated GPU execution) to show the metered platform report.

Run:  python examples/unit_commitment.py
"""

import numpy as np

from repro.api import SolveOptions, solve
from repro.mip import BranchAndBoundSolver, SolverOptions
from repro.problems import generate_unit_commitment
from repro.reporting import format_bytes, format_seconds, render_table

GENERATORS, PERIODS = 3, 4
problem = generate_unit_commitment(GENERATORS, PERIODS, seed=9)

result = BranchAndBoundSolver(
    problem, SolverOptions(cut_rounds=2, branching="pseudocost")
).solve()
assert result.ok

u = result.x[: GENERATORS * PERIODS].reshape(GENERATORS, PERIODS)
p = result.x[GENERATORS * PERIODS :].reshape(GENERATORS, PERIODS)

print(f"total cost: {-result.objective:.1f}  (nodes={result.stats.nodes_processed}, "
      f"cuts={result.stats.cuts_added})\n")
rows = []
for g in range(GENERATORS):
    schedule = " ".join("ON " if u[g, t] > 0.5 else "off" for t in range(PERIODS))
    dispatch = " ".join(f"{p[g, t]:5.0f}" for t in range(PERIODS))
    rows.append((f"gen {g}", schedule, dispatch))
print(render_table(["unit", "commitment", "dispatch (MW)"], rows))

print("\n--- same search on the simulated V100 platform (strategy 2) ---")
report = solve(problem, SolveOptions(strategy="cpu_orchestrated"))
platform = report.metrics["platform"]
print(f"simulated makespan : {format_seconds(report.makespan_seconds)}")
print(f"kernels launched   : {platform['kernels']}")
print(f"host<->device      : {platform['h2d'] + platform['d2h']} transfers, "
      f"{format_bytes(platform['bytes_moved'])}")
print(f"device memory peak : {format_bytes(platform['mem_peak_bytes'])}")
assert np.isclose(report.objective, result.objective)
