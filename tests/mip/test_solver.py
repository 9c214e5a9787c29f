"""Branch-and-bound solver correctness against exact oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import LinearConstraint, milp

from repro.mip.problem import MIPProblem
from repro.mip.result import MIPStatus
from repro.mip.solver import BranchAndBoundSolver, SolverOptions
from repro.problems.knapsack import generate_knapsack, knapsack_dp_optimal
from repro.problems.random_mip import generate_random_mip
from repro.problems.setcover import generate_set_cover

from ..lp._degenerate import degenerate_mip


def brute_force_binary(problem: MIPProblem) -> float:
    """Enumerate all 0/1 points of a pure-binary problem (oracle)."""
    best = -np.inf
    n = problem.n
    for bits in itertools.product([0.0, 1.0], repeat=n):
        x = np.array(bits)
        if problem.is_feasible(x):
            best = max(best, problem.objective(x))
    return best


def solve(problem, **kw):
    return BranchAndBoundSolver(problem, SolverOptions(**kw)).solve()


class TestTiny:
    def test_trivial_integral_root(self):
        # LP optimum is already integral.
        p = MIPProblem(
            c=[1.0, 1.0],
            integer=np.array([True, True]),
            a_ub=[[1.0, 0.0], [0.0, 1.0]],
            b_ub=[2.0, 3.0],
            ub=[5.0, 5.0],
        )
        res = solve(p)
        assert res.status is MIPStatus.OPTIMAL
        assert res.objective == pytest.approx(5.0)

    def test_branching_required(self):
        # max x st 2x <= 3, x integer -> x = 1.
        p = MIPProblem(
            c=[1.0], integer=np.array([True]), a_ub=[[2.0]], b_ub=[3.0], ub=[5.0]
        )
        res = solve(p)
        assert res.objective == pytest.approx(1.0)
        assert res.x[0] == pytest.approx(1.0)

    def test_infeasible_mip(self):
        # 0.5 <= x <= 0.7, x integer.
        p = MIPProblem(
            c=[1.0],
            integer=np.array([True]),
            a_ub=[[1.0], [-1.0]],
            b_ub=[0.7, -0.5],
            ub=[1.0],
        )
        res = solve(p)
        assert res.status is MIPStatus.INFEASIBLE

    def test_mixed_integer_continuous(self):
        # y continuous rides on integer x: max x + y st x + y <= 2.5, x int.
        p = MIPProblem(
            c=[1.0, 1.0],
            integer=np.array([True, False]),
            a_ub=[[1.0, 1.0]],
            b_ub=[2.5],
            ub=[10.0, 10.0],
        )
        res = solve(p)
        assert res.objective == pytest.approx(2.5)
        assert res.x[0] == pytest.approx(round(res.x[0]))

    def test_node_limit_status(self):
        p = generate_knapsack(30, seed=5, correlation="strong")
        res = solve(p, node_limit=3)
        assert res.status is MIPStatus.NODE_LIMIT
        assert res.best_bound >= res.objective - 1e-9 or np.isnan(res.objective)

    def test_keep_tree_and_figure1_invariant(self):
        from repro.mip.snapshot import assert_search_complete
        from repro.mip.tree import NodeTag

        # Heuristics off so the incumbent is discovered at a FEASIBLE leaf.
        p = generate_knapsack(10, seed=1)
        res = solve(p, keep_tree=True, use_rounding_heuristic=False)
        assert res.tree is not None
        assert_search_complete(res.tree)  # no ACTIVE nodes at completion
        counts = res.tree.tag_counts()
        assert counts[NodeTag.ACTIVE] == 0
        assert counts[NodeTag.FEASIBLE] >= 1


class TestKnapsackOracle:
    @pytest.mark.parametrize("n,seed", [(8, 0), (10, 1), (12, 2), (15, 3), (18, 4)])
    def test_matches_dp(self, n, seed):
        p = generate_knapsack(n, seed=seed)
        expected, _ = knapsack_dp_optimal(p)
        res = solve(p)
        assert res.status is MIPStatus.OPTIMAL
        assert res.objective == pytest.approx(expected)
        assert p.is_feasible(res.x)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_strongly_correlated(self, seed):
        p = generate_knapsack(12, seed=seed, correlation="strong")
        expected, _ = knapsack_dp_optimal(p)
        res = solve(p)
        assert res.objective == pytest.approx(expected)


class TestDegenerateFamily:
    """Node LPs of the degenerate family stall the dual loop; its stall
    rule answers them, so no node climbs the guard ladder (51, 168 and
    192 escalated while the ladder held the rule)."""

    @pytest.mark.parametrize("seed", [51, 52, 53, 168, 192])
    def test_reaches_highs_optimum_without_the_ladder(self, seed):
        p = degenerate_mip(seed)
        res = solve(p)
        assert res.status is MIPStatus.OPTIMAL and res.stats.escalations == 0
        highs = milp(
            -p.c, integrality=np.ones(p.n), bounds=(p.lb, p.ub),
            constraints=LinearConstraint(p.a_ub, -np.inf, p.b_ub),
            options={"mip_rel_gap": 0.0},
        )
        assert res.objective == pytest.approx(-highs.fun, abs=1e-6)
        assert p.is_feasible(res.x)


class TestBruteForceOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_binary_mips(self, seed):
        rng = np.random.default_rng(seed)
        n = 7
        p = MIPProblem(
            c=rng.standard_normal(n) * 5,
            integer=np.ones(n, dtype=bool),
            a_ub=rng.standard_normal((4, n)),
            b_ub=rng.random(4) * 3 + 1,
            lb=np.zeros(n),
            ub=np.ones(n),
        )
        expected = brute_force_binary(p)
        res = solve(p)
        if np.isinf(expected):
            assert res.status is MIPStatus.INFEASIBLE
        else:
            assert res.objective == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    def test_set_cover(self, seed):
        p = generate_set_cover(6, 10, seed=seed)
        expected = brute_force_binary(p)
        res = solve(p)
        assert res.objective == pytest.approx(expected, abs=1e-6)


class TestOptionsMatrix:
    @pytest.mark.parametrize("branching", ["most_fractional", "pseudocost", "strong"])
    @pytest.mark.parametrize(
        "selection", ["best_first", "depth_first", "hybrid", "gpu_locality"]
    )
    def test_every_combination_agrees(self, branching, selection):
        p = generate_knapsack(12, seed=9)
        expected, _ = knapsack_dp_optimal(p)
        res = solve(p, branching=branching, node_selection=selection)
        assert res.status is MIPStatus.OPTIMAL
        assert res.objective == pytest.approx(expected)

    def test_cuts_do_not_change_answer(self):
        p = generate_knapsack(14, seed=3)
        expected, _ = knapsack_dp_optimal(p)
        res = solve(p, cut_rounds=3)
        assert res.objective == pytest.approx(expected)

    def test_cuts_reduce_nodes_on_knapsack(self):
        p = generate_knapsack(14, seed=3)
        plain = solve(p, cut_rounds=0)
        cutting = solve(p, cut_rounds=3)
        assert cutting.objective == pytest.approx(plain.objective, abs=1e-6)
        assert cutting.stats.cuts_added > 0
        assert cutting.stats.nodes_processed <= plain.stats.nodes_processed

    def test_warm_start_agrees_with_cold(self):
        p = generate_knapsack(14, seed=8)
        warm = solve(p, warm_start=True)
        cold = solve(p, warm_start=False)
        assert warm.objective == pytest.approx(cold.objective)
        assert warm.stats.warm_starts > 0
        assert cold.stats.warm_starts == 0

    def test_heuristic_counts(self):
        p = generate_knapsack(16, seed=2)
        res = solve(p, use_rounding_heuristic=True)
        assert res.status is MIPStatus.OPTIMAL

    def test_mixed_random_mip_solves(self):
        p = generate_random_mip(8, 5, seed=3, integer_fraction=0.5, bound=4.0)
        res = solve(p)
        assert res.status is MIPStatus.OPTIMAL
        assert p.is_feasible(res.x)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n=st.integers(min_value=2, max_value=6),
)
def test_property_binary_mip_matches_brute_force(seed, n):
    """Any small random binary MIP agrees with exhaustive enumeration."""
    rng = np.random.default_rng(seed)
    p = MIPProblem(
        c=rng.standard_normal(n) * 3,
        integer=np.ones(n, dtype=bool),
        a_ub=rng.standard_normal((3, n)),
        b_ub=rng.random(3) * 2 + 0.5,
        lb=np.zeros(n),
        ub=np.ones(n),
    )
    expected = brute_force_binary(p)
    res = solve(p)
    if np.isinf(expected):
        assert res.status is MIPStatus.INFEASIBLE
    else:
        assert res.objective == pytest.approx(expected, abs=1e-6)
        assert p.is_feasible(res.x)
