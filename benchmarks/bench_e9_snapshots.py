"""E9 — §2.1: consistent snapshots and checkpoint/restart.

Claims reproduced: a consistent snapshot (the open-leaf set) preserves
the optimum at *any* interruption point; capture is trivial
sequentially; in the distributed run the supervisor must also account
for in-flight tasks, and restarting from any distributed checkpoint
still reaches the same optimum (UG's checkpoint/restart facility).
"""

import numpy as np

from repro.mip.snapshot import capture_snapshot, resume_from_snapshot
from repro.mip.solver import BranchAndBoundSolver, SolverOptions
from repro.problems.knapsack import generate_knapsack, knapsack_dp_optimal
from repro.reporting import format_bytes, render_table
from repro.strategies.distributed import solve_distributed

PROBLEM = generate_knapsack(16, seed=4)
EXPECTED, _ = knapsack_dp_optimal(PROBLEM)


def run_sequential_cadence():
    rows = []
    for stop_after in (1, 4, 12, 30):
        solver = BranchAndBoundSolver(
            PROBLEM, SolverOptions(node_limit=stop_after, keep_tree=True)
        )
        partial = solver.solve()
        incumbent = partial.objective if partial.x is not None else -np.inf
        snap = capture_snapshot(
            partial.tree, incumbent_objective=incumbent, incumbent_x=partial.x
        )
        lbs, ubs = snap.to_arrays()
        resumed = resume_from_snapshot(PROBLEM, snap)
        ok = abs(resumed.objective - EXPECTED) < 1e-6
        rows.append(
            (
                stop_after,
                snap.num_leaves,
                format_bytes(int(lbs.nbytes + ubs.nbytes)),
                resumed.stats.nodes_processed,
                "yes" if ok else "NO",
            )
        )
        assert ok
    return rows


def run_distributed_restart():
    rows = []
    run = solve_distributed(PROBLEM, num_workers=3, checkpoint_every=4)
    for idx, snapshot in enumerate(run.snapshots[:4]):
        resumed = resume_from_snapshot(PROBLEM, snapshot)
        ok = abs(resumed.objective - EXPECTED) < 1e-6
        rows.append((idx, snapshot.num_leaves, "yes" if ok else "NO"))
        assert ok
    return rows


def test_e9_snapshots(benchmark, report):
    seq_rows = benchmark.pedantic(run_sequential_cadence, rounds=1, iterations=1)
    dist_rows = run_distributed_restart()
    sequential = render_table(
        ["killed after N nodes", "open leaves", "snapshot bytes", "restart nodes", "optimum preserved"],
        seq_rows,
        title="E9 — sequential snapshot/restart at arbitrary interruption points",
    )
    distributed = render_table(
        ["checkpoint #", "captured tasks (queued+in-flight)", "optimum preserved"],
        dist_rows,
        title="E9b — distributed checkpoints (supervisor view, 3 workers)",
    )
    report.add("E9_snapshots", sequential + "\n\n" + distributed)
