"""Interior-point method tests against the simplex and scipy."""

import numpy as np
import pytest

from repro.lp.interior_point import IPMOptions, interior_point_solve
from repro.lp.problem import LinearProgram
from repro.lp.result import LPStatus
from repro.lp.warm import solve_lp


def make_bounded_lp(seed, m=6, n=8):
    rng = np.random.default_rng(seed)
    return LinearProgram(
        c=rng.standard_normal(n),
        a_ub=rng.standard_normal((m, n)),
        b_ub=rng.random(m) * 4 + 1,
        ub=np.full(n, 10.0),
    )


class TestIPM:
    def test_textbook(self):
        lp = LinearProgram(
            c=[3.0, 2.0], a_ub=[[1.0, 1.0], [1.0, 3.0]], b_ub=[4.0, 6.0]
        )
        res = interior_point_solve(lp.to_standard_form())
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(12.0, abs=1e-5)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_simplex_on_random_lps(self, seed):
        lp = make_bounded_lp(seed)
        simplex = solve_lp(lp)
        assert simplex.status is LPStatus.OPTIMAL
        ipm = interior_point_solve(lp.to_standard_form())
        assert ipm.status is LPStatus.OPTIMAL
        assert ipm.objective == pytest.approx(simplex.objective, abs=1e-4, rel=1e-5)

    def test_solution_is_feasible(self):
        lp = make_bounded_lp(3)
        sf = lp.to_standard_form()
        res = interior_point_solve(sf)
        assert res.status is LPStatus.OPTIMAL
        np.testing.assert_allclose(sf.a @ res.x_standard, sf.b, atol=1e-5)
        assert np.all(res.x_standard >= -1e-9)

    def test_iteration_limit_reported(self):
        lp = make_bounded_lp(5)
        res = interior_point_solve(
            lp.to_standard_form(), IPMOptions(max_iterations=1)
        )
        assert res.status is LPStatus.ITERATION_LIMIT

    def test_equality_constrained(self):
        lp = LinearProgram(
            c=[1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[3.0], ub=[2.0, 2.0]
        )
        res = interior_point_solve(lp.to_standard_form())
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(3.0, abs=1e-5)

    def test_duals_sign_matches_simplex(self):
        lp = LinearProgram(c=[3.0, 2.0], a_ub=[[1.0, 1.0]], b_ub=[4.0])
        simplex = solve_lp(lp)
        ipm = interior_point_solve(lp.to_standard_form())
        assert ipm.duals[0] == pytest.approx(simplex.duals[0], abs=1e-4)
