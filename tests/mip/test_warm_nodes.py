"""Satellite: node-LP warm starts — counters, caches, and equivalence.

The warm path must be an accounting-only change: identical optima and
node counts with warm starts on or off, big pivot savings, zero audit
failures on healthy instances, and the per-node
:class:`~repro.lp.warm.WarmStateCache` bounded so deep trees cannot
hoard memory.
"""

import pytest

from repro.mip.batch_solver import BatchedNodeSolver
from repro.mip.solver import BranchAndBoundSolver, SolverOptions
from repro.problems.knapsack import generate_knapsack, knapsack_dp_optimal


@pytest.fixture(scope="module")
def knapsack():
    return generate_knapsack(18, seed=3, correlation="strong")


@pytest.fixture(scope="module")
def warm_cold(knapsack):
    warm = BranchAndBoundSolver(
        knapsack, SolverOptions(warm_start=True)
    )
    warm_res = warm.solve()
    cold_res = BranchAndBoundSolver(
        knapsack, SolverOptions(warm_start=False)
    ).solve()
    return warm, warm_res, cold_res


class TestSerialWarmNodes:
    def test_same_answer_same_tree(self, knapsack, warm_cold):
        _, warm_res, cold_res = warm_cold
        optimal, _ = knapsack_dp_optimal(knapsack)
        assert warm_res.objective == pytest.approx(optimal)
        assert warm_res.status is cold_res.status
        assert warm_res.objective == cold_res.objective
        assert warm_res.best_bound == cold_res.best_bound
        assert warm_res.stats.nodes_processed == cold_res.stats.nodes_processed

    def test_warm_counters(self, warm_cold):
        _, warm_res, cold_res = warm_cold
        ws, cs = warm_res.stats, cold_res.stats
        assert ws.warm_starts > 0
        assert ws.warm_factor_reuses > 0
        assert ws.warm_audit_failures == 0
        # Cold runs never take the warm path.
        assert cs.warm_starts == 0
        assert cs.warm_pivots == 0
        assert cs.warm_factor_reuses == 0

    def test_pivot_reduction(self, warm_cold):
        _, warm_res, cold_res = warm_cold
        warm_pivots = warm_res.stats.warm_pivots + warm_res.stats.cold_pivots
        cold_pivots = cold_res.stats.warm_pivots + cold_res.stats.cold_pivots
        # The tentpole claim, at its E15 floor: ≥ 2x fewer pivots.
        assert warm_pivots * 2 <= cold_pivots

    def test_warm_state_cache_bounded(self, warm_cold):
        solver, _, _ = warm_cold
        assert len(solver._warm_states) <= solver._warm_states.capacity

    def test_determinism(self, knapsack, warm_cold):
        _, warm_res, _ = warm_cold
        again = BranchAndBoundSolver(
            knapsack, SolverOptions(warm_start=True)
        ).solve()
        assert repr(again.objective) == repr(warm_res.objective)
        assert repr(again.best_bound) == repr(warm_res.best_bound)
        assert again.stats.nodes_processed == warm_res.stats.nodes_processed


class TestBatchedWarmNodes:
    def test_batched_matches_serial_with_warm_stats(self, knapsack, warm_cold):
        _, warm_res, _ = warm_cold
        solver = BatchedNodeSolver(knapsack, batch_size=8)
        res = solver.solve()
        assert res.objective == pytest.approx(warm_res.objective)
        assert res.stats.warm_starts > 0
        assert res.stats.warm_factor_reuses > 0
        assert res.stats.warm_audit_failures == 0
        assert len(solver._warm_states) <= solver._warm_states.capacity
