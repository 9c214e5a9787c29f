"""Energy accounting in strategy reports (§2.2)."""

import pytest

from repro.api import SolveOptions, solve
from repro.problems.knapsack import generate_knapsack
from repro.strategies.registry import metered_strategies

PROBLEM = generate_knapsack(12, seed=9)


def run_strategy(problem, strategy):
    return solve(problem, SolveOptions(strategy=strategy)).strategy_report


class TestEnergyInReports:
    @pytest.mark.parametrize("strategy", metered_strategies())
    def test_energy_positive(self, strategy):
        report = run_strategy(PROBLEM, strategy)
        assert report.energy_joules > 0.0

    def test_big_mip_burns_most_energy(self):
        """Four lockstep shards burn ~4x the kernel energy of one GPU."""
        single = run_strategy(PROBLEM, "cpu_orchestrated")
        sharded = run_strategy(PROBLEM, "big_mip_4")
        assert sharded.energy_joules > 2 * single.energy_joules

    def test_hybrid_energy_counts_both_devices(self):
        from repro.mip.solver import BranchAndBoundSolver, SolverOptions
        from repro.strategies.hybrid import HybridEngine

        engine = HybridEngine()
        result = BranchAndBoundSolver(PROBLEM, SolverOptions(), engine=engine).solve()
        report = engine.report(result)
        expected = engine.device.energy_joules + engine.cpu.energy_joules
        assert report.energy_joules == pytest.approx(expected)
