"""Determinism: the same instance through the same engine twice must be
bit-for-bit repeatable — node counts, incumbents, and every meter."""

import dataclasses

import numpy as np
import pytest

from repro.api import SolveOptions, solve
from repro.mip.solver import BranchAndBoundSolver, SolverOptions
from repro.problems.knapsack import generate_knapsack
from repro.problems.random_mip import generate_random_mip
from repro.strategies.registry import metered_strategies


def run_strategy(problem, strategy):
    return solve(problem, SolveOptions(strategy=strategy))


def _stats_dict(stats):
    return dataclasses.asdict(stats)


def _report_metrics(report):
    return {"makespan": report.makespan_seconds, **report.metrics["platform"]}


class TestStrategyDeterminism:
    @pytest.mark.parametrize("strategy", metered_strategies())
    def test_identical_reruns(self, strategy):
        problem = generate_random_mip(7, 5, seed=3, density=0.8)
        first = run_strategy(problem, strategy)
        second = run_strategy(problem, strategy)

        assert first.result.status is second.result.status
        assert first.result.objective == second.result.objective
        np.testing.assert_array_equal(first.result.x, second.result.x)
        assert first.result.best_bound == second.result.best_bound
        assert (
            first.result.stats.nodes_processed
            == second.result.stats.nodes_processed
        )
        assert _stats_dict(first.result.stats) == _stats_dict(
            second.result.stats
        )
        assert _report_metrics(first) == _report_metrics(second)

    @pytest.mark.parametrize("strategy", metered_strategies())
    def test_identical_reruns_on_knapsack(self, strategy):
        problem = generate_knapsack(12, seed=9)
        metrics = [
            _report_metrics(run_strategy(problem, strategy)) for _ in range(2)
        ]
        assert metrics[0] == metrics[1]


class TestSolverDeterminism:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "node_selection,branching",
        [
            ("best_first", "pseudocost"),
            ("depth_first", "most_fractional"),
            ("hybrid", "reliability"),
        ],
    )
    def test_bb_solver_repeats_exactly(self, seed, node_selection, branching):
        problem = generate_random_mip(6, 4, seed=seed, density=0.8)
        options = SolverOptions(
            node_selection=node_selection, branching=branching
        )
        runs = [
            BranchAndBoundSolver(problem, options).solve() for _ in range(2)
        ]
        assert runs[0].objective == runs[1].objective
        np.testing.assert_array_equal(runs[0].x, runs[1].x)
        assert _stats_dict(runs[0].stats) == _stats_dict(runs[1].stats)

    def test_incumbent_history_is_identical(self):
        problem = generate_random_mip(7, 5, seed=4, density=0.9)
        options = SolverOptions(cut_rounds=1)
        a = BranchAndBoundSolver(problem, options).solve()
        b = BranchAndBoundSolver(problem, options).solve()
        assert a.stats.incumbent_history == b.stats.incumbent_history
