"""Solution-pool tests and batched-vs-serial cross-check property."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mip.batch_solver import BatchedNodeSolver
from repro.mip.problem import MIPProblem
from repro.mip.result import MIPStatus
from repro.mip.solver import BranchAndBoundSolver, SolverOptions
from repro.problems.knapsack import generate_knapsack


class TestSolutionPool:
    def test_pool_sorted_best_first(self):
        p = generate_knapsack(14, seed=2)
        res = BranchAndBoundSolver(
            p, SolverOptions(solution_pool_size=5, use_rounding_heuristic=True)
        ).solve()
        assert res.ok
        objs = [obj for obj, _ in res.solution_pool]
        assert objs == sorted(objs, reverse=True)
        assert objs[0] == pytest.approx(res.objective)

    def test_pool_entries_feasible(self):
        p = generate_knapsack(14, seed=3)
        res = BranchAndBoundSolver(
            p, SolverOptions(solution_pool_size=4)
        ).solve()
        for obj, x in res.solution_pool:
            assert p.is_feasible(x)
            assert p.objective(x) == pytest.approx(obj)

    def test_pool_capped(self):
        p = generate_knapsack(16, seed=1)
        res = BranchAndBoundSolver(
            p, SolverOptions(solution_pool_size=2)
        ).solve()
        assert len(res.solution_pool) <= 2

    def test_default_pool_is_singleton(self):
        p = generate_knapsack(12, seed=0)
        res = BranchAndBoundSolver(p, SolverOptions()).solve()
        assert len(res.solution_pool) == 1


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n=st.integers(min_value=3, max_value=6),
    batch=st.integers(min_value=1, max_value=8),
)
def test_property_batched_and_serial_solvers_agree(seed, n, batch):
    """Both drivers reach the same optimum (or both prove infeasible)."""
    rng = np.random.default_rng(seed)
    p = MIPProblem(
        c=rng.standard_normal(n) * 4,
        integer=np.ones(n, dtype=bool),
        a_ub=rng.standard_normal((3, n)),
        b_ub=rng.random(3) * 2 + 0.5,
        lb=np.zeros(n),
        ub=np.ones(n),
    )
    serial = BranchAndBoundSolver(p, SolverOptions()).solve()
    batched = BatchedNodeSolver(p, batch_size=batch).solve()
    assert serial.status == batched.status
    if serial.status is MIPStatus.OPTIMAL:
        assert batched.objective == pytest.approx(serial.objective, abs=1e-6)
