"""MIR cut validity and separation tests."""

import itertools

import numpy as np
import pytest

from repro.lp.warm import solve_lp
from repro.mip.cuts.mir import mir_cuts
from repro.mip.problem import MIPProblem
from repro.mip.result import MIPStatus
from repro.mip.solver import BranchAndBoundSolver, SolverOptions
from repro.problems.random_mip import generate_random_mip
from repro.problems.unit_commitment import generate_unit_commitment


def all_feasible_points(problem, grid):
    """Enumerate integer grids for the integer vars, LP-check the rest."""
    int_idx = np.nonzero(problem.integer)[0]
    cont_idx = np.nonzero(~problem.integer)[0]
    for combo in itertools.product(*[grid[j] for j in int_idx]):
        x = np.zeros(problem.n)
        x[int_idx] = combo
        feasible = True
        if cont_idx.size == 0:
            if problem.is_feasible(x):
                yield x
            continue
        # For mixed problems: continuous parts at a few corners.
        for cvals in itertools.product(
            *[(problem.lb[j], problem.ub[j]) for j in cont_idx]
        ):
            x2 = x.copy()
            x2[cont_idx] = cvals
            if problem.is_feasible(x2):
                yield x2


def lift_to_standard(sf, x):
    x_std = np.zeros(sf.n)
    for i in range(len(x)):
        x_std[sf.pos_col[i]] = x[i] - sf.shift[i]
    residual = sf.b - sf.a[:, : sf.num_structural] @ x_std[: sf.num_structural]
    x_std[sf.num_structural :] = residual
    return x_std


class TestMIRValidity:
    @pytest.mark.parametrize("seed", range(5))
    def test_valid_for_all_integer_points(self, seed):
        p = MIPProblem(
            c=np.random.default_rng(seed).standard_normal(4),
            integer=np.ones(4, dtype=bool),
            a_ub=np.random.default_rng(seed + 50).uniform(0.3, 3.0, (3, 4)),
            b_ub=np.random.default_rng(seed + 99).uniform(3.0, 8.0, 3),
            lb=np.zeros(4),
            ub=np.full(4, 3.0),
        )
        res = solve_lp(p.relaxation())
        if not res.ok:
            pytest.skip("relaxation unbounded/infeasible")
        sf = p.relaxation().to_standard_form()
        cuts = mir_cuts(p, sf, res.x)
        if not cuts:
            pytest.skip("no violated MIR cut at this optimum")
        grid = {j: np.arange(0, 4.0) for j in range(4)}
        points = list(all_feasible_points(p, grid))
        assert points
        for cut in cuts:
            for x in points:
                x_std = lift_to_standard(sf, x)
                assert float(cut.row @ x_std) <= cut.rhs + 1e-6, (
                    f"MIR cut kills feasible point {x}"
                )

    def test_mixed_row_with_continuous(self):
        # 2.5 x0 + 1.5 x1 - y <= 3.6, x int in [0,3], y in [0,2].
        p = MIPProblem(
            c=[1.0, 1.0, 0.1],
            integer=np.array([True, True, False]),
            a_ub=[[2.5, 1.5, -1.0]],
            b_ub=[3.6],
            lb=np.zeros(3),
            ub=[3.0, 3.0, 2.0],
        )
        res = solve_lp(p.relaxation())
        sf = p.relaxation().to_standard_form()
        cuts = mir_cuts(p, sf, res.x)
        grid = {0: np.arange(0, 4.0), 1: np.arange(0, 4.0)}
        for cut in cuts:
            for x in all_feasible_points(p, grid):
                x_std = lift_to_standard(sf, x)
                assert float(cut.row @ x_std) <= cut.rhs + 1e-6

    def test_cut_violated_by_generating_point(self):
        p = MIPProblem(
            c=[1.0],
            integer=np.array([True]),
            a_ub=[[2.0]],
            b_ub=[3.0],
            ub=[5.0],
        )
        res = solve_lp(p.relaxation())  # x = 1.5
        sf = p.relaxation().to_standard_form()
        cuts = mir_cuts(p, sf, res.x)
        assert cuts
        x_std = lift_to_standard(sf, res.x)
        for cut in cuts:
            assert float(cut.row @ x_std) > cut.rhs + 1e-7

    def test_integral_rhs_gives_no_cut(self):
        p = MIPProblem(
            c=[1.0],
            integer=np.array([True]),
            a_ub=[[1.0]],
            b_ub=[3.0],
            ub=[5.0],
        )
        sf = p.relaxation().to_standard_form()
        assert mir_cuts(p, sf, np.array([2.5])) == []


    def test_valid_at_a_node_whose_lower_bounds_moved(self):
        """A node's form is shifted by the node's lower bounds, not the
        root's: cuts derived in the root's shifted space cut off
        [3, 0, 4, 1] at this node (a shrunk fuzz instance)."""
        p = MIPProblem(
            c=[1.4945468227522702, 0.7690855945892996, 0.11947368539450666, -0.3969089606397138],
            integer=np.ones(4, dtype=bool),
            a_ub=[
                [0.0, 2.523885612826169, 0.0, -1.6435170967290544],
                [1.0841057567937236, -0.5106335384522822, 0.418342200311165, 1.4768285439879936],
                [0.6729548736116836, -0.07135410446730628, -0.7930410141547539, -0.6332839860162726],
            ],
            b_ub=[-0.8919195364673105, 7.301602123054244, -0.46182282767258087],
            lb=np.zeros(4),
            ub=np.full(4, 4.0),
        )
        lb, ub = np.array([0.0, 0.0, 4.0, 1.0]), np.array([4.0, 2.0, 4.0, 4.0])
        node = p.relaxation().with_bound_vectors(lb, ub)
        res = solve_lp(node)
        sf = node.to_standard_form()
        cuts = mir_cuts(p, sf, res.x)
        assert cuts
        grid = {j: np.arange(lb[j], ub[j] + 1.0) for j in range(4)}
        points = list(all_feasible_points(p.restricted(lb, ub), grid))
        assert any(np.array_equal(x, [3.0, 0.0, 4.0, 1.0]) for x in points)
        for cut in cuts:
            for x in points:
                assert float(cut.row @ lift_to_standard(sf, x)) <= cut.rhs + 1e-6, x


class TestMIRInSolver:
    def test_solver_with_mir_preserves_optimum(self):
        p = generate_random_mip(10, 6, seed=8, bound=4.0)
        plain = BranchAndBoundSolver(p, SolverOptions(cut_rounds=0)).solve()
        with_cuts = BranchAndBoundSolver(p, SolverOptions(cut_rounds=3)).solve()
        assert with_cuts.status is MIPStatus.OPTIMAL
        assert with_cuts.objective == pytest.approx(plain.objective, abs=1e-6)

    def test_unit_commitment_with_cuts(self):
        p = generate_unit_commitment(3, 2, seed=1)
        plain = BranchAndBoundSolver(p, SolverOptions(cut_rounds=0)).solve()
        with_cuts = BranchAndBoundSolver(p, SolverOptions(cut_rounds=2)).solve()
        assert with_cuts.objective == pytest.approx(plain.objective, abs=1e-6)
