"""Sensitivity analysis and reduced-cost fixing tests."""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import LPError
from repro.lp.problem import LinearProgram
from repro.lp.sensitivity import analyze, reduced_cost_fixing
from repro.lp.warm import solve_warm_or_cold
from repro.mip.cuts.gomory import standard_integer_mask
from repro.problems.knapsack import generate_knapsack


def solved(lp):
    sf = lp.to_standard_form()
    res = solve_warm_or_cold(sf, None).result
    assert res.ok
    return sf, res


class TestAnalyze:
    def test_reduced_costs_nonpositive_at_optimum(self):
        rng = np.random.default_rng(0)
        lp = LinearProgram(
            c=rng.standard_normal(6),
            a_ub=rng.standard_normal((4, 6)),
            b_ub=rng.random(4) * 3 + 1,
            ub=np.full(6, 10.0),
        )
        sf, res = solved(lp)
        report = analyze(sf, res)
        assert np.all(report.reduced_costs[~res.at_upper] <= 1e-7)
        assert np.all(report.reduced_costs[res.at_upper] >= -1e-7)
        np.testing.assert_allclose(
            report.reduced_costs[res.basis], 0.0, atol=1e-9
        )

    def test_ranges_against_the_box(self):
        """Knapsack items sit at their upper bound: the rhs range stops
        where a basic item hits 0 or 1, an at-upper item's cost may fall
        by d_j before it leaves its bound, and re-solves confirm both."""
        lp = generate_knapsack(12, seed=7).relaxation()
        sf, res = solved(lp)
        report = analyze(sf, res)
        (lo, hi), = report.rhs_ranges
        assert -np.inf < lo < 0.0 < hi < np.inf
        for t in (lo / 2, hi / 2):
            _, moved = solved(replace(lp, b_ub=lp.b_ub + t))
            assert moved.objective == pytest.approx(res.objective + report.duals[0] * t)
        up = np.flatnonzero(res.at_upper[: lp.n])
        assert up.size
        for j in up:
            low, high = report.cost_ranges[j]
            assert high == np.inf and low == pytest.approx(-report.reduced_costs[j])
            for step, stays in ((0.5, True), (1.5, False)):
                c = lp.c.copy()
                c[j] += step * low
                _, moved = solved(replace(lp, c=c))
                assert bool(moved.x_standard[j] == sf.upper[j]) is stays

    def test_rhs_ranging_contains_zero(self):
        lp = LinearProgram(c=[3.0, 2.0], a_ub=[[1.0, 1.0], [1.0, 3.0]], b_ub=[4.0, 6.0])
        sf, res = solved(lp)
        report = analyze(sf, res)
        for lo, hi in report.rhs_ranges:
            assert lo <= 1e-9 and hi >= -1e-9

    def test_rhs_ranging_predicts_objective_change(self):
        """Inside the range, objective moves linearly with slope = dual."""
        lp = LinearProgram(c=[3.0, 2.0], a_ub=[[1.0, 1.0], [1.0, 3.0]], b_ub=[4.0, 6.0])
        sf, res = solved(lp)
        report = analyze(sf, res)
        i = 0
        lo, hi = report.rhs_ranges[i]
        t = min(hi, 0.5) / 2 if np.isfinite(hi) else 0.25
        perturbed = LinearProgram(
            c=[3.0, 2.0], a_ub=[[1.0, 1.0], [1.0, 3.0]], b_ub=[4.0 + t, 6.0]
        )
        _, res2 = solved(perturbed)
        predicted = res.objective + report.duals[i] * t
        assert res2.objective == pytest.approx(predicted, abs=1e-7)

    def test_cost_ranging_nonbasic(self):
        """Raising a nonbasic cost past its range makes it enter."""
        lp = LinearProgram(c=[3.0, 2.0], a_ub=[[1.0, 1.0], [1.0, 3.0]], b_ub=[4.0, 6.0])
        sf, res = solved(lp)
        report = analyze(sf, res)
        nonbasic = [
            j
            for j in range(sf.n)
            if j not in set(res.basis.tolist()) and np.isfinite(report.cost_ranges[j][1])
        ]
        assert nonbasic
        for j in nonbasic:
            _, allow_up = report.cost_ranges[j]
            assert allow_up >= -1e-9

    def test_requires_basis(self):
        lp = LinearProgram(c=[1.0], ub=[1.0])
        sf = lp.to_standard_form()
        from repro.lp.result import LPResult, LPStatus

        fake = LPResult(status=LPStatus.OPTIMAL, objective=1.0)
        with pytest.raises(LPError):
            analyze(sf, fake)


def solved_root(p):
    """``p``'s root relaxation as the tree solves it, with its ``d``."""
    lp = p.relaxation()
    sf, res = solved(lp)
    d = sf.c - sf.a.T @ res.duals
    columns = np.where(p.integer & (sf.neg_col < 0), sf.pos_col, -1)
    return lp, res, d, columns


class TestReducedCostFixing:
    def test_fixes_hopeless_items(self):
        """With the optimum as incumbent, items get fixed on both sides and
        the optimum stays in the box (a tie is kept)."""
        p = generate_knapsack(20, seed=1)
        lp, res, d, columns = solved_root(p)
        from repro.problems.knapsack import knapsack_dp_optimal

        best, x_opt = knapsack_dp_optimal(p)
        lb, ub = reduced_cost_fixing(
            d, res.basis, res.at_upper, res.objective - best, lp.lb, lp.ub, columns
        )
        assert (lb > lp.lb).any() and (ub < lp.ub).any()
        # Fixing must never cut off the true optimum.
        assert np.all(lb <= x_opt) and np.all(x_opt <= ub)

    def test_weak_incumbent_fixes_nothing_extra(self):
        p = generate_knapsack(15, seed=2)
        lp, res, d, columns = solved_root(p)
        strong = reduced_cost_fixing(
            d, res.basis, res.at_upper, 0.5, lp.lb, lp.ub, columns
        )
        weak = reduced_cost_fixing(d, res.basis, res.at_upper, 1e9, lp.lb, lp.ub, columns)
        assert np.all(weak[0] <= strong[0]) and np.all(weak[1] >= strong[1])
        np.testing.assert_array_equal(weak[0], lp.lb)
        np.testing.assert_array_equal(weak[1], lp.ub)

    def test_general_integer_reach_and_basics(self):
        """``⌊slack / |d|⌋`` steps from the bound, a ratio on an integer is
        kept, basic / continuous columns are left alone."""
        d = np.array([-2.0, 3.0, -1.0, 0.0, -5.0])
        at_upper = np.array([False, True, False, False, False])
        basis = np.array([3, 4])
        lb, ub = np.zeros(4), np.full(4, 9.0)
        columns = np.array([0, 1, 3, -1])  # x3 is continuous
        new_lb, new_ub = reduced_cost_fixing(d, basis, at_upper, 6.0, lb, ub, columns)
        np.testing.assert_array_equal(new_ub, [3.0, 9.0, 9.0, 9.0])
        np.testing.assert_array_equal(new_lb, [0.0, 7.0, 0.0, 0.0])
