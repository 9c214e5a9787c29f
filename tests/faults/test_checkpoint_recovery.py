"""Satellite: checkpoint-based crash recovery is exact.

Kill the B&B driver at every k-th node, resume from the latest
snapshot, and require the same incumbent and dual bound as the
uninterrupted run.
"""

from dataclasses import fields

import numpy as np
import pytest

from repro.api import SolveOptions, solve
from repro.errors import SolverCrashError
from repro.faults import recovery
from repro.faults.chaos import builtin_corpus
from repro.faults.injector import injecting
from repro.faults.plan import SITE_NODE, FaultPlan, ScheduledFault
from repro.faults.recovery import solve_with_checkpoint_resume
from repro.mip.solver import BranchAndBoundSolver, SolverOptions
from repro.problems.knapsack import generate_knapsack
from repro.problems.random_mip import generate_random_mip


def _baseline(problem):
    return BranchAndBoundSolver(problem, SolverOptions()).solve()


def _kill_every(k: int, horizon: int) -> FaultPlan:
    return FaultPlan(
        seed=0,
        scheduled=tuple(
            ScheduledFault(site=SITE_NODE, at=at)
            for at in range(k - 1, horizon, k)
        ),
    )


class TestKillEveryKthNode:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_resume_matches_uninterrupted(self, k):
        problem = generate_knapsack(9, seed=5)
        base = _baseline(problem)
        # Generous horizon: occurrence counters survive restarts, so
        # this schedules kills well past the uninterrupted node count.
        plan = _kill_every(k, horizon=10 * max(1, base.stats.nodes_processed))
        with injecting(plan) as injector:
            result, stats = solve_with_checkpoint_resume(
                problem, SolverOptions(checkpoint_every=1)
            )
            assert injector.clean
        assert stats.restarts > 0
        assert result.status is base.status
        assert result.objective == pytest.approx(base.objective, abs=1e-9)
        assert result.best_bound == pytest.approx(base.best_bound, abs=1e-9)
        np.testing.assert_allclose(result.x, base.x, atol=1e-9)

    @pytest.mark.parametrize("every", [2, 4])
    def test_sparser_checkpoints_still_exact(self, every):
        problem = generate_random_mip(8, 5, seed=2)
        base = _baseline(problem)
        plan = _kill_every(3, horizon=10 * max(1, base.stats.nodes_processed))
        with injecting(plan) as injector:
            result, stats = solve_with_checkpoint_resume(
                problem, SolverOptions(checkpoint_every=every)
            )
            assert injector.clean
        assert result.status is base.status
        if base.x is not None:
            assert result.objective == pytest.approx(base.objective, abs=1e-9)
        assert result.best_bound == pytest.approx(base.best_bound, abs=1e-9)


class TestCrashWiring:
    def test_solver_raises_without_recovery_driver(self):
        problem = generate_knapsack(8, seed=1)
        plan = FaultPlan(
            seed=0, scheduled=(ScheduledFault(site=SITE_NODE, at=0),)
        )
        with injecting(plan):
            solver = BranchAndBoundSolver(problem, SolverOptions())
            with pytest.raises(SolverCrashError):
                solver.solve()

    def test_api_routes_node_plans_through_resume(self):
        problem = generate_knapsack(8, seed=1)
        base = solve(problem, SolveOptions(strategy="direct"))
        plan = FaultPlan(
            seed=0, scheduled=(ScheduledFault(site=SITE_NODE, at=1),)
        )
        report = solve(
            problem,
            SolveOptions(
                strategy="direct",
                solver=SolverOptions(checkpoint_every=1),
                fault_plan=plan,
            ),
        )
        assert report.status == base.status
        assert report.objective == pytest.approx(base.objective)
        assert report.metrics["faults"]["recovered"] == 1
        assert report.metrics["resume"]["restarts"] == 1


class TestMergedStats:
    def test_a_resumed_solve_reports_every_attempts_work(self, monkeypatch):
        """C1's node kill: the merged stats are the attempts' summed."""
        attempts = []

        class Recorded(BranchAndBoundSolver):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                attempts.append(self)

        monkeypatch.setattr(recovery, "BranchAndBoundSolver", Recorded)
        (plan,) = [p for p in builtin_corpus(0) if p.name == "node-kill"]
        report = solve(
            generate_knapsack(8, seed=0),
            SolveOptions(
                strategy="gpu_only",
                solver=SolverOptions(checkpoint_every=2),
                fault_plan=plan,
            ),
        )
        assert report.metrics["resume"]["restarts"] == 1 and len(attempts) == 2
        stats = report.result.stats
        moments = {"incumbent_history", "first_incumbent_nodes", "first_incumbent_seconds"}
        for f in fields(stats):
            if f.name not in moments:
                ran = sum(getattr(a.stats, f.name) for a in attempts)
                assert getattr(stats, f.name) == ran, f.name
        # Both attempts started their LPs: the root and a warm child
        # before the kill, the restarted leaf cold after it.
        assert (stats.warm_starts, stats.cold_starts) == (1, 2)
        assert stats.warm_starts + stats.cold_starts == stats.nodes_processed
        assert stats.warm_pivots + stats.cold_pivots == stats.lp_iterations
        # The moments: each attempt's history after the nodes of those
        # before it, improvements only; first marks from the earliest.
        expected, best, shift, first = [], -np.inf, 0, None
        for a in attempts:
            for nodes, value in a.stats.incumbent_history:
                if value > best:
                    expected.append((nodes + shift, value))
                    best = value
            if first is None and a.stats.first_incumbent_nodes >= 0:
                first = (a.stats.first_incumbent_nodes + shift, a.stats.first_incumbent_seconds)
            shift += a.stats.nodes_processed
        assert stats.incumbent_history == expected
        assert expected[-1][1] == report.objective == 437
        assert (stats.first_incumbent_nodes, stats.first_incumbent_seconds) == first
        assert first[0] >= 0 and np.isfinite(first[1])
