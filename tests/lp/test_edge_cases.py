"""LP solver edge cases: empty problems, limits, degenerate structure."""

import numpy as np
import pytest

from repro.lp.problem import LinearProgram, StandardFormLP
from repro.lp.result import LPStatus
from repro.lp.simplex import SimplexOptions
from repro.lp.warm import solve_lp, solve_warm_or_cold


class TestEmptyAndTrivial:
    def test_no_constraints_bounded_by_ub(self):
        lp = LinearProgram(c=[2.0, -1.0], ub=[3.0, 5.0])
        res = solve_lp(lp)
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(6.0)

    def test_no_constraints_unbounded(self):
        lp = LinearProgram(c=[1.0])  # ub defaults to +inf
        res = solve_lp(lp)
        assert res.status is LPStatus.UNBOUNDED

    def test_no_constraints_all_negative_costs(self):
        lp = LinearProgram(c=[-1.0, -2.0])
        res = solve_lp(lp)
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(0.0)

    def test_single_variable_single_row(self):
        lp = LinearProgram(c=[1.0], a_ub=[[2.0]], b_ub=[5.0])
        res = solve_lp(lp)
        assert res.objective == pytest.approx(2.5)

    def test_zero_rhs(self):
        lp = LinearProgram(c=[1.0, 1.0], a_ub=[[1.0, -1.0]], b_ub=[0.0], ub=[2.0, 2.0])
        res = solve_lp(lp)
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(4.0)


class TestIterationLimit:
    def test_limit_reported(self):
        rng = np.random.default_rng(0)
        n, m = 12, 10
        lp = LinearProgram(
            c=rng.standard_normal(n),
            a_ub=rng.standard_normal((m, n)),
            b_ub=rng.random(m) * 4 + 1,
            ub=np.full(n, 10.0),
        )
        res = solve_warm_or_cold(
            lp.to_standard_form(), None, cold_options=SimplexOptions(max_iterations=1)
        ).result
        assert res.status is LPStatus.ITERATION_LIMIT


class TestDegenerateStructure:
    def test_many_redundant_parallel_rows(self):
        # Twenty copies of the same constraint.
        row = np.array([1.0, 2.0])
        lp = LinearProgram(
            c=[1.0, 1.0],
            a_ub=np.tile(row, (20, 1)),
            b_ub=np.full(20, 4.0),
            ub=[10.0, 10.0],
        )
        res = solve_lp(lp)
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(4.0)

    def test_highly_degenerate_vertex(self):
        # All constraints tight at the optimum (0, 0)... maximize -x-y.
        lp = LinearProgram(
            c=[-1.0, -1.0],
            a_ub=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 1.0]],
            b_ub=[0.0, 0.0, 0.0, 0.0],
            ub=[5.0, 5.0],
        )
        res = solve_lp(lp)
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(0.0)

    def test_equality_only_square_system(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        x_true = np.array([1.0, 2.0])
        lp = LinearProgram(
            c=[0.0, 0.0], a_eq=a, b_eq=a @ x_true, ub=[10.0, 10.0]
        )
        res = solve_lp(lp)
        assert res.status is LPStatus.OPTIMAL
        np.testing.assert_allclose(res.x, x_true, atol=1e-8)

    def test_tiny_coefficients(self):
        lp = LinearProgram(
            c=[1.0], a_ub=[[1e-7]], b_ub=[1e-6], ub=[100.0]
        )
        res = solve_lp(lp)
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(10.0)


class TestStandardFormEdge:
    def test_empty_standard_form_rows(self):
        sf = StandardFormLP(
            c=np.array([-1.0]),
            a=np.zeros((0, 1)),
            b=np.zeros(0),
            num_structural=1,
            pos_col=np.array([0]),
            neg_col=np.array([-1]),
            shift=np.zeros(1),
        )
        res = solve_warm_or_cold(sf, None).result
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(0.0)

    def test_appended_rows_roundtrip(self):
        lp = LinearProgram(c=[1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[4.0])
        sf = lp.to_standard_form()
        grown = sf.with_appended_rows(
            np.array([[1.0, 0.0, 0.0]]), np.array([1.5])
        )
        res = solve_warm_or_cold(grown, None).result
        assert res.status is LPStatus.OPTIMAL
        # x0 now capped at 1.5: optimum 1.5 + 2.5 = 4.
        assert res.objective == pytest.approx(4.0)
        x = grown.recover_x(res.x_standard)
        assert x[0] <= 1.5 + 1e-9

    def test_appended_rows_shape_check(self):
        from repro.errors import ProblemFormatError

        lp = LinearProgram(c=[1.0], ub=[1.0])
        sf = lp.to_standard_form()
        with pytest.raises(ProblemFormatError):
            sf.with_appended_rows(np.ones((1, 99)), np.ones(1))
