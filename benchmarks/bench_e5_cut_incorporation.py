"""E5 — §5.2: incorporating generated cuts.

Claim reproduced: "Until GPU-based cut generators are developed, the cut
generation can be assumed to be performed on the CPU, which will require
the latest copy of the matrix … to be copied from the device to the
host" — i.e. every CPU cut round costs a device→host matrix download
plus a host→device upload of the cut rows, while a (hypothetical)
GPU-resident generator eliminates the downloads entirely.
"""

from repro.mip.result import MIPStatus
from repro.mip.solver import BranchAndBoundSolver, SolverOptions
from repro.problems.knapsack import generate_knapsack
from repro.reporting import format_bytes, format_seconds, render_table
from repro.strategies.engine import CpuOrchestratedEngine


def run_modes():
    rows = []
    problem = generate_knapsack(18, seed=6)
    results = {}
    for cut_rounds in (0, 1, 2, 4):
        for generation in ("cpu", "gpu"):
            if cut_rounds == 0 and generation == "gpu":
                continue
            engine = CpuOrchestratedEngine(cut_generation=generation)
            solver = BranchAndBoundSolver(
                problem, SolverOptions(cut_rounds=cut_rounds), engine=engine
            )
            result = solver.solve()
            assert result.status is MIPStatus.OPTIMAL
            results[(cut_rounds, generation)] = result
            label = "no cuts" if cut_rounds == 0 else f"{cut_rounds} rounds ({generation})"
            rows.append(
                (
                    label,
                    result.stats.cuts_added,
                    result.stats.nodes_processed,
                    engine.device.metrics.count("transfers.d2h"),
                    format_bytes(engine.device.metrics.count("transfers.d2h_bytes")),
                    format_seconds(engine.device.clock.now),
                )
            )
    objectives = {round(r.objective, 6) for r in results.values()}
    assert len(objectives) == 1, "cut modes changed the optimum"
    return rows


def test_e5_cut_incorporation(benchmark, report):
    rows = benchmark.pedantic(run_modes, rounds=1, iterations=1)
    # CPU generation pays matrix downloads; GPU generation pays none.
    cpu_rows = [r for r in rows if "(cpu)" in r[0]]
    gpu_rows = [r for r in rows if "(gpu)" in r[0]]
    assert all(r[3] > 0 for r in cpu_rows if r[1] > 0)
    assert all(r[3] == 0 for r in gpu_rows)
    table = render_table(
        ["configuration", "cuts", "nodes", "d2h copies", "d2h bytes", "sim time"],
        rows,
        title="E5 — cut generation: CPU round trips vs GPU-resident append",
    )
    report.add("E5_cut_incorporation", table)
