"""Primal-heuristic tests."""

import numpy as np
import pytest

from repro.mip.portfolio import (
    PortfolioOptions,
    dive_fix,
    round_to_feasible,
    run_portfolio,
)
from repro.mip.problem import MIPProblem
from repro.lp.warm import solve_lp
from repro.problems.knapsack import generate_knapsack
from repro.problems.setcover import generate_set_cover


class TestRounding:
    def test_feasible_rounding_returned(self):
        p = generate_knapsack(10, seed=0)
        res = solve_lp(p.relaxation())
        candidate = round_to_feasible(p, res.x)
        if candidate is not None:
            assert p.is_feasible(candidate)

    def test_infeasible_rounding_rejected(self):
        # Equality row: rounding 0.5/0.5 breaks x0 + x1 = 1? No - rounds
        # to 0/1 or 1/0 depending on ties; construct a case that breaks.
        p = MIPProblem(
            c=[1.0, 1.0],
            integer=np.array([True, True]),
            a_eq=[[2.0, 2.0]],
            b_eq=[1.0],  # no integer point satisfies 2x0+2x1 = 1
            ub=np.ones(2),
        )
        assert round_to_feasible(p, np.array([0.25, 0.25])) is None


class TestDiving:
    def test_dive_reaches_feasible_point(self):
        p = generate_knapsack(12, seed=3)
        relax = p.relaxation()
        res = solve_lp(relax)
        point, iterations = dive_fix(p, relax, res.x)
        assert iterations >= 0
        if point is not None:
            assert p.is_feasible(point)

    def test_depth_limit_respected(self):
        p = generate_knapsack(12, seed=4)
        relax = p.relaxation()
        res = solve_lp(relax)
        point, iterations = dive_fix(p, relax, res.x, max_depth=0)
        # Zero depth: only succeeds if already integral, and solves nothing.
        assert iterations == 0
        if point is not None:
            assert p.fractional_integers(res.x).size == 0


class TestFeasibilityPump:
    """Feasibility jump + fix-and-propagate alone (LNS off): the cheap
    end of the portfolio, standing in for the old feasibility pump."""

    PUMP = PortfolioOptions(restarts=8, n_jobs=8, fj_sweeps=30, lns_rounds=0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pump_finds_feasible_knapsack_point(self, seed):
        p = generate_knapsack(14, seed=seed)
        best = run_portfolio(p, self.PUMP).best
        assert best is not None
        assert p.is_feasible(best.x)

    def test_pump_on_cover(self):
        p = generate_set_cover(8, 16, seed=1)
        best = run_portfolio(p, self.PUMP).best
        assert best is not None
        assert p.is_feasible(best.x)

    def test_pump_gives_up_gracefully(self):
        # Infeasible MIP: the portfolio must return nothing, not loop forever.
        p = MIPProblem(
            c=[1.0],
            integer=np.array([True]),
            a_ub=[[1.0], [-1.0]],
            b_ub=[0.7, -0.5],
            ub=np.ones(1),
        )
        assert run_portfolio(p, self.PUMP).best is None
