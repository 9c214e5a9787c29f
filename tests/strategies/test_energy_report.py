"""Energy accounting in strategy reports (§2.2)."""

import pytest

from repro.api import SolveOptions, solve
from repro.problems.knapsack import generate_knapsack
from repro.strategies import registry
from repro.strategies.registry import metered_strategies

PROBLEM = generate_knapsack(12, seed=9)


def run_strategy(problem, strategy):
    return solve(problem, SolveOptions(strategy=strategy)).metrics["platform"]


class TestEnergyInReports:
    @pytest.mark.parametrize("strategy", metered_strategies())
    def test_energy_positive(self, strategy):
        report = run_strategy(PROBLEM, strategy)
        assert report["energy_joules"] > 0.0

    def test_big_mip_burns_most_energy(self):
        """Four lockstep shards burn ~4x the kernel energy of one GPU."""
        single = run_strategy(PROBLEM, "cpu_orchestrated")
        sharded = run_strategy(PROBLEM, "big_mip_4")
        assert sharded["energy_joules"] > 2 * single["energy_joules"]

    def test_hybrid_energy_counts_both_devices(self):
        from repro.mip.solver import BranchAndBoundSolver, SolverOptions
        from repro.strategies.hybrid import HybridEngine

        engine = HybridEngine()
        BranchAndBoundSolver(PROBLEM, SolverOptions(), engine=engine).solve()
        report = engine.platform_summary()
        expected = engine.device.energy_joules + engine.cpu.energy_joules
        assert report["energy_joules"] == pytest.approx(expected)


def _fold(devices):
    """Each device's ``summary()``, summed (memory peak: the largest)."""
    summaries = [device.summary() for device in devices]
    folded = {
        key: sum(s[key] for s in summaries)
        for key in ("kernels", "h2d", "d2h", "bytes_moved", "energy_joules")
    }
    folded["mem_peak_bytes"] = max(s["mem_peak_bytes"] for s in summaries)
    return folded


class TestPlatformFold:
    @pytest.mark.parametrize("strategy,num_devices", [("hybrid", 2), ("big_mip_4", 4)])
    def test_platform_is_the_device_fold(self, strategy, num_devices):
        engine = registry.engine_for(strategy)
        report = solve(PROBLEM, SolveOptions(strategy=strategy, engine=engine))
        assert len(engine.devices) == num_devices
        assert report.metrics["platform"] == _fold(engine.devices)

    def test_direct_has_no_platform(self):
        report = solve(PROBLEM, SolveOptions(strategy="direct"))
        assert "platform" not in report.metrics
