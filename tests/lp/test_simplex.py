"""Revised simplex tests, cross-checked against scipy.optimize.linprog.

scipy is the oracle only — the solver under test shares no code with it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.errors import ReproError
from repro.lp.problem import LinearProgram
from repro.lp.result import LPStatus
from repro.lp.simplex import SimplexOptions, solve_standard_form
from repro.lp.warm import slack_start, solve_lp, solve_warm_or_cold


def scipy_solve(lp: LinearProgram):
    """Oracle solve (scipy minimizes, we maximize).

    HiGHS's presolve can misjudge a degenerate LP (it calls a feasible,
    unbounded one infeasible — see ``HIGHS_PRESOLVE_MISJUDGED`` in
    ``test_batch_simplex.py``), so any non-optimal verdict (2/3/4) is
    asked again without presolve and that second answer is the oracle.
    """
    bounds = [
        (lo if np.isfinite(lo) else None, hi if np.isfinite(hi) else None)
        for lo, hi in zip(lp.lb, lp.ub)
    ]
    kwargs = dict(
        A_ub=lp.a_ub,
        b_ub=lp.b_ub,
        A_eq=lp.a_eq,
        b_eq=lp.b_eq,
        bounds=bounds,
        method="highs",
    )
    res = linprog(-lp.c, **kwargs)
    if res.status in (2, 3, 4):
        res = linprog(-lp.c, options={"presolve": False}, **kwargs)
    return res


def assert_matches_oracle(lp: LinearProgram, atol=1e-6):
    ours = solve_lp(lp)
    oracle = scipy_solve(lp)
    if oracle.status == 0:
        assert ours.status is LPStatus.OPTIMAL, f"expected optimal, got {ours.status}"
        assert ours.objective == pytest.approx(-oracle.fun, abs=atol, rel=1e-6)
        # Solution feasibility in the original space.
        x = ours.x
        if lp.a_ub is not None:
            assert np.all(lp.a_ub @ x <= lp.b_ub + 1e-6)
        if lp.a_eq is not None:
            np.testing.assert_allclose(lp.a_eq @ x, lp.b_eq, atol=1e-6)
        assert np.all(x >= lp.lb - 1e-6)
        assert np.all(x <= lp.ub + 1e-6)
    elif oracle.status == 2:
        assert ours.status is LPStatus.INFEASIBLE
    elif oracle.status == 3:
        assert ours.status is LPStatus.UNBOUNDED
    return ours


class TestTextbookCases:
    def test_two_variable_max(self):
        # max 3x + 2y st x + y <= 4, x + 3y <= 6 -> (4, 0), obj 12.
        lp = LinearProgram(
            c=[3.0, 2.0], a_ub=[[1.0, 1.0], [1.0, 3.0]], b_ub=[4.0, 6.0]
        )
        res = solve_lp(lp)
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(12.0)
        np.testing.assert_allclose(res.x, [4.0, 0.0], atol=1e-8)

    def test_degenerate_lp(self):
        # Multiple constraints meet at the optimum.
        lp = LinearProgram(
            c=[1.0, 1.0],
            a_ub=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
            b_ub=[1.0, 1.0, 2.0],
        )
        res = solve_lp(lp)
        assert res.objective == pytest.approx(2.0)

    def test_infeasible(self):
        lp = LinearProgram(c=[1.0], a_ub=[[1.0], [-1.0]], b_ub=[1.0, -3.0])
        assert solve_lp(lp).status is LPStatus.INFEASIBLE

    def test_unbounded(self):
        lp = LinearProgram(c=[1.0, 0.0], a_ub=[[0.0, 1.0]], b_ub=[1.0])
        assert solve_lp(lp).status is LPStatus.UNBOUNDED

    def test_equality_constraints(self):
        # max x + y st x + y = 3, x <= 2 -> obj 3.
        lp = LinearProgram(
            c=[1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[3.0], ub=[2.0, np.inf]
        )
        res = solve_lp(lp)
        assert res.objective == pytest.approx(3.0)

    def test_negative_lower_bounds(self):
        lp = LinearProgram(
            c=[-1.0], lb=[-5.0], ub=[5.0], a_ub=[[1.0]], b_ub=[3.0]
        )
        res = solve_lp(lp)
        assert res.objective == pytest.approx(5.0)
        assert res.x[0] == pytest.approx(-5.0)

    def test_free_variable(self):
        lp = LinearProgram(
            c=[1.0, 0.0],
            lb=[-np.inf, 0.0],
            a_eq=[[1.0, 1.0]],
            b_eq=[-2.0],
            ub=[np.inf, 10.0],
        )
        res = solve_lp(lp)
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(-2.0 - 0.0)
        # x0 = -2 - x1; max x0 means x1 = 0.
        assert res.x[0] == pytest.approx(-2.0)

    def test_redundant_rows(self):
        lp = LinearProgram(
            c=[1.0, 1.0],
            a_eq=[[1.0, 1.0], [2.0, 2.0]],
            b_eq=[2.0, 4.0],
        )
        res = solve_lp(lp)
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(2.0)

    def test_zero_objective(self):
        lp = LinearProgram(c=[0.0, 0.0], a_ub=[[1.0, 1.0]], b_ub=[1.0])
        res = solve_lp(lp)
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(0.0)

    def test_duals_available(self):
        lp = LinearProgram(c=[3.0, 2.0], a_ub=[[1.0, 1.0]], b_ub=[4.0])
        res = solve_lp(lp)
        assert res.duals is not None
        # One binding row: dual equals the larger cost.
        assert res.duals[0] == pytest.approx(3.0)


class TestRandomVsOracle:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_inequality_lps(self, seed):
        rng = np.random.default_rng(seed)
        m, n = rng.integers(2, 9), rng.integers(2, 9)
        lp = LinearProgram(
            c=rng.standard_normal(n),
            a_ub=rng.standard_normal((m, n)),
            b_ub=rng.random(m) * 5 + 0.5,  # origin feasible
            ub=np.full(n, 10.0),
        )
        assert_matches_oracle(lp)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_mixed_lps(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(3, 8))
        m_ub = int(rng.integers(1, 5))
        m_eq = int(rng.integers(1, 3))
        x_feas = rng.random(n)
        a_ub = rng.standard_normal((m_ub, n))
        a_eq = rng.standard_normal((m_eq, n))
        lp = LinearProgram(
            c=rng.standard_normal(n),
            a_ub=a_ub,
            b_ub=a_ub @ x_feas + rng.random(m_ub) + 0.1,
            a_eq=a_eq,
            b_eq=a_eq @ x_feas,
            ub=np.full(n, 20.0),
        )
        assert_matches_oracle(lp)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_infeasible(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(2, 6))
        row = rng.random(n) + 0.1
        lp = LinearProgram(
            c=rng.standard_normal(n),
            a_ub=np.vstack([row, -row]),
            b_ub=np.array([1.0, -2.0]),  # row@x <= 1 and >= 2
            ub=np.full(n, 100.0),
        )
        assert solve_lp(lp).status is LPStatus.INFEASIBLE


class TestPricingRules:
    @pytest.mark.parametrize("pricing", ["dantzig", "devex", "bland"])
    def test_all_rules_reach_optimum(self, pricing):
        rng = np.random.default_rng(7)
        n, m = 10, 8
        lp = LinearProgram(
            c=rng.standard_normal(n),
            a_ub=rng.standard_normal((m, n)),
            b_ub=rng.random(m) * 4 + 1,
            ub=np.full(n, 10.0),
        )
        baseline = solve_lp(lp)
        # Pricing is the primal loop's: run it from the slack basis (b > 0).
        sf = lp.to_standard_form()
        res = solve_standard_form(
            sf, slack_start(sf).basis, options=SimplexOptions(pricing=pricing)
        )
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(baseline.objective, rel=1e-7)

    def test_unknown_pricing_rejected(self):
        with pytest.raises(ReproError):
            SimplexOptions(pricing="nope")


class TestRefactorization:
    @pytest.mark.parametrize("interval", [1, 4, 1000])
    def test_interval_does_not_change_answer(self, interval):
        rng = np.random.default_rng(11)
        n, m = 12, 10
        lp = LinearProgram(
            c=rng.standard_normal(n),
            a_ub=rng.standard_normal((m, n)),
            b_ub=rng.random(m) * 4 + 1,
            ub=np.full(n, 10.0),
        )
        sf = lp.to_standard_form()
        options = SimplexOptions(refactor_interval=interval)
        baseline = solve_lp(lp)
        # Both loops: the door's dual and the primal from the slack basis.
        for res in (
            solve_warm_or_cold(sf, None, cold_options=options).result,
            solve_standard_form(sf, slack_start(sf).basis, options=options),
        ):
            assert res.objective == pytest.approx(baseline.objective, rel=1e-7)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    m=st.integers(min_value=1, max_value=7),
    n=st.integers(min_value=1, max_value=7),
)
def test_property_simplex_matches_scipy(seed, m, n):
    """On random bounded-feasible LPs, objective matches the oracle."""
    rng = np.random.default_rng(seed)
    lp = LinearProgram(
        c=rng.standard_normal(n),
        a_ub=rng.standard_normal((m, n)),
        b_ub=rng.random(m) * 3 + 0.2,
        ub=np.full(n, 8.0),
    )
    assert_matches_oracle(lp)
