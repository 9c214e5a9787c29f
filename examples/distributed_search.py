"""ParaSCIP-style distributed branch-and-bound (supervisor–worker).

Runs the same hard knapsack through the UG-style engine at several
worker counts over the simulated Summit-class network, showing the
speedup curve, per-worker load balance, and a checkpoint/restart cycle
(§2.1's consistent snapshots).

Run:  python examples/distributed_search.py
"""

from repro.mip.snapshot import resume_from_snapshot
from repro.problems import generate_knapsack
from repro.problems.knapsack import knapsack_dp_optimal
from repro.reporting import format_seconds, render_table
from repro.strategies import solve_distributed

problem = generate_knapsack(20, seed=11, correlation="strong")
expected, _ = knapsack_dp_optimal(problem)
print(f"instance: {problem.name}, DP optimum = {expected:.0f}\n")

baseline = solve_distributed(problem, num_workers=0)
rows = [("sequential", format_seconds(baseline.makespan_seconds), "1.00", "-", 0)]
for workers in (1, 2, 4, 8):
    run = solve_distributed(problem, num_workers=workers)
    assert abs(run.objective - expected) < 1e-6
    speedup = baseline.makespan_seconds / run.makespan_seconds
    balance = min(run.per_worker) / max(run.per_worker) if run.per_worker else 1.0
    rows.append(
        (
            f"{workers} workers",
            format_seconds(run.makespan_seconds),
            f"{speedup:.2f}",
            f"{balance:.2f}",
            run.messages,
        )
    )
print(render_table(["configuration", "makespan", "speedup", "balance", "messages"], rows))

print("\n--- checkpoint / restart ---")
checkpointed = solve_distributed(problem, num_workers=3, checkpoint_every=5)
snapshot = checkpointed.snapshots[0]
resumed = resume_from_snapshot(problem, snapshot)
print(
    f"restarted from checkpoint with {snapshot.num_leaves} open sub-trees "
    f"→ optimum {resumed.objective:.0f} "
    f"(matches: {abs(resumed.objective - expected) < 1e-6})"
)
