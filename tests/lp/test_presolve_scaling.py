"""Presolve tests."""

import numpy as np
import pytest

from repro.lp.presolve import PresolveStatus, presolve
from repro.lp.problem import LinearProgram
from repro.lp.result import LPStatus
from repro.lp.simplex import solve_lp


class TestPresolve:
    def test_fixed_variable_substituted(self):
        lp = LinearProgram(
            c=[1.0, 2.0],
            a_ub=[[1.0, 1.0]],
            b_ub=[5.0],
            lb=[3.0, 0.0],
            ub=[3.0, 10.0],
        )
        res = presolve(lp)
        assert res.status is PresolveStatus.REDUCED
        assert res.lp.n == 1
        assert res.fixed_objective == pytest.approx(3.0)
        # Remaining constraint: x1 <= 2.
        np.testing.assert_allclose(res.lp.b_ub, [2.0])

    def test_postsolve_reconstructs_solution(self):
        lp = LinearProgram(
            c=[1.0, 2.0],
            a_ub=[[1.0, 1.0]],
            b_ub=[5.0],
            lb=[3.0, 0.0],
            ub=[3.0, 10.0],
        )
        res = presolve(lp)
        inner = solve_lp(res.lp)
        x = res.postsolve(inner.x)
        assert x[0] == pytest.approx(3.0)
        assert x[1] == pytest.approx(2.0)
        total = res.fixed_objective + inner.objective
        assert total == pytest.approx(solve_lp(lp).objective)

    def test_singleton_row_tightens_bound(self):
        lp = LinearProgram(c=[1.0, 1.0], a_ub=[[2.0, 0.0]], b_ub=[4.0], ub=[10.0, 1.0])
        res = presolve(lp)
        assert res.status is PresolveStatus.REDUCED
        assert res.lp.ub[0] == pytest.approx(2.0)
        assert res.lp.num_ub_rows == 0

    def test_empty_infeasible_row(self):
        lp = LinearProgram(c=[1.0], a_ub=[[0.0]], b_ub=[-1.0], ub=[1.0])
        assert presolve(lp).status is PresolveStatus.INFEASIBLE

    def test_crossed_bounds_after_tightening(self):
        # Singleton row forces x <= -1 but lb = 0.
        lp = LinearProgram(c=[1.0], a_ub=[[1.0]], b_ub=[-1.0], ub=[5.0])
        assert presolve(lp).status is PresolveStatus.INFEASIBLE

    def test_all_fixed_solved(self):
        lp = LinearProgram(c=[1.0, 1.0], lb=[2.0, 3.0], ub=[2.0, 3.0])
        res = presolve(lp)
        assert res.status is PresolveStatus.SOLVED
        np.testing.assert_allclose(res.postsolve(np.zeros(0)), [2.0, 3.0])
        assert res.fixed_objective == pytest.approx(5.0)

    def test_all_fixed_infeasible(self):
        lp = LinearProgram(
            c=[1.0], lb=[2.0], ub=[2.0], a_ub=[[1.0]], b_ub=[1.0]
        )
        assert presolve(lp).status is PresolveStatus.INFEASIBLE

    def test_presolve_preserves_optimum(self):
        rng = np.random.default_rng(5)
        n, m = 8, 5
        lb = np.zeros(n)
        ub = np.full(n, 6.0)
        lb[2] = ub[2] = 1.5  # one fixed variable
        lp = LinearProgram(
            c=rng.standard_normal(n),
            a_ub=rng.standard_normal((m, n)),
            b_ub=rng.random(m) * 5 + 2,
            lb=lb,
            ub=ub,
        )
        direct = solve_lp(lp)
        res = presolve(lp)
        assert res.status is PresolveStatus.REDUCED
        inner = solve_lp(res.lp)
        assert inner.status is LPStatus.OPTIMAL
        assert res.fixed_objective + inner.objective == pytest.approx(
            direct.objective, abs=1e-6
        )
