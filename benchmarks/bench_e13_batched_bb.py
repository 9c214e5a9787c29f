"""E13 — §5.5 end-to-end: batched-node branch-and-bound.

Extends E7 from isolated LP batches to the full search: the
:class:`repro.mip.batch_solver.BatchedNodeSolver` pops up to K open
nodes per round and charges one batched kernel sequence, versus the
serial strategy-2 engine launching a small kernel stream per node.
Both searches run the same rules (``SolverOptions()``), so width
changes only what a round cannot see: its members are solved before
they can prune each other.
Claim: time to optimality falls as K rises, at the same optimum.
Nodes per simulated second is reported beside it, but a bigger tree
inflates it, so the gate reads time to optimality.
"""

from repro.mip.batch_solver import BatchedNodeSolver
from repro.mip.result import MIPStatus
from repro.mip.solver import BranchAndBoundSolver, SolverOptions
from repro.problems.knapsack import generate_knapsack, knapsack_dp_optimal
from repro.reporting import render_series
from repro.strategies.engine import CpuOrchestratedEngine

BATCHES = [1, 4, 16, 64]


def run_sweep():
    problem = generate_knapsack(20, seed=2, correlation="strong")
    expected, _ = knapsack_dp_optimal(problem)
    options = SolverOptions()

    serial_engine = CpuOrchestratedEngine()
    serial_res = BranchAndBoundSolver(problem, options, engine=serial_engine).solve()
    assert serial_res.status is MIPStatus.OPTIMAL
    assert abs(serial_res.objective - expected) < 1e-6
    serial_seconds = serial_engine.elapsed_seconds

    rows = [("serial", serial_res.stats.nodes_processed, serial_seconds)]
    for batch in BATCHES:
        solver = BatchedNodeSolver(problem, options, batch_size=batch)
        res = solver.solve()
        assert res.status is MIPStatus.OPTIMAL
        assert abs(res.objective - expected) < 1e-6
        rows.append((f"batch {batch}", res.stats.nodes_processed, solver.device.clock.now))
    return [
        (name, nodes, seconds, nodes / seconds, serial_seconds / seconds)
        for name, nodes, seconds in rows
    ]


def test_e13_batched_bb(benchmark, report):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    speedups = [r[4] for r in rows[1:]]
    # Time to optimality falls with every widening, 3x serial at K = 64.
    assert all(a < b for a, b in zip(speedups, speedups[1:]))
    assert speedups[-1] >= 3.0
    series = render_series(
        "configuration",
        [r[0] for r in rows],
        [
            ("nodes", [r[1] for r in rows]),
            ("sim-ms", [round(r[2] * 1e3, 2) for r in rows]),
            ("nodes per sim-sec", [round(r[3]) for r in rows]),
            ("time to opt vs serial", [round(r[4], 2) for r in rows]),
        ],
        title="E13 — batched-node B&B time to optimality (knapsack-20-strong, V100)",
    )
    report.add("E13_batched_bb", series)
