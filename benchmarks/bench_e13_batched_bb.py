"""E13 — §5.5 end-to-end: batched-node branch-and-bound.

Extends E7 from isolated LP batches to the full search: the
:class:`repro.mip.batch_solver.BatchedNodeSolver` pops up to K open
nodes per round and charges one batched kernel sequence, versus the
serial strategy-2 engine launching a small kernel stream per node.
Claim: node throughput rises with batch size while the optimum (and the
tree, up to round-boundary effects) is unchanged.
"""

from repro.mip.batch_solver import BatchedNodeSolver
from repro.mip.result import MIPStatus
from repro.mip.solver import BranchAndBoundSolver, SolverOptions
from repro.problems.knapsack import generate_knapsack, knapsack_dp_optimal
from repro.reporting import format_seconds, render_series
from repro.strategies.engine import CpuOrchestratedEngine

BATCHES = [1, 4, 16, 64]


def run_sweep():
    problem = generate_knapsack(20, seed=2, correlation="strong")
    expected, _ = knapsack_dp_optimal(problem)

    serial_engine = CpuOrchestratedEngine()
    serial_res = BranchAndBoundSolver(
        problem, SolverOptions(), engine=serial_engine
    ).solve()
    assert serial_res.status is MIPStatus.OPTIMAL
    assert abs(serial_res.objective - expected) < 1e-6
    serial_rate = serial_res.stats.nodes_processed / serial_engine.elapsed_seconds

    rows = [("serial", serial_res.stats.nodes_processed, serial_rate, 1.0)]
    for batch in BATCHES:
        solver = BatchedNodeSolver(problem, batch_size=batch)
        res = solver.solve()
        assert res.status is MIPStatus.OPTIMAL
        assert abs(res.objective - expected) < 1e-6
        rate = res.stats.nodes_processed / solver.device.clock.now
        rows.append((f"batch {batch}", res.stats.nodes_processed, rate, rate / serial_rate))
    return rows


def test_e13_batched_bb(benchmark, report):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    rates = [r[2] for r in rows]
    # Throughput climbs with batch size and beats serial by a wide margin.
    assert rates[-1] > rates[1]
    assert rows[-1][3] > 5.0
    series = render_series(
        "configuration",
        [r[0] for r in rows],
        [
            ("nodes", [r[1] for r in rows]),
            ("nodes per sim-sec", [round(r[2]) for r in rows]),
            ("speedup vs serial", [round(r[3], 1) for r in rows]),
        ],
        title="E13 — batched-node B&B throughput (knapsack-20-strong, V100)",
    )
    report.add("E13_batched_bb", series)
