"""The cold start of the one LP door: the slack basis, then the dual or the primal loop.

With no caller state, or one it refused, :func:`repro.lp.warm.solve_warm_or_cold`
starts from :func:`repro.lp.warm.slack_start` as :func:`repro.lp.warm.cold_start`
says.  A primal feasible slack basis with an unboxed positive cost is the
primal loop's start.  Any other seeds :func:`repro.lp.warm.warm_resolve`,
every unboxed positive cost zeroed, and the answer is audited; the primal
loop finishes it from that answer's basis when costs were zeroed or the
audit refused it.  There is no phase 1.  Every row has a slack — an
equality row's fixed at 0 — so the start always exists.  Either way the
outcome is a cold start, and ``pivots`` counts every pivot that ran.
"""

import numpy as np
import pytest

from repro.la.updates import ExplicitInverse
from repro.lp.batch_simplex import solve_lp_batch
from repro.lp import simplex as simplex_module
from repro.lp import warm as warm_module
from repro.lp.problem import LinearProgram
from repro.lp.result import LPStatus
from repro.lp.warm import WarmStartState, cold_start, slack_start, solve_lp, solve_warm_or_cold
from repro.problems.knapsack import generate_knapsack
from repro.problems.pathological import case_by_name
from repro.problems.random_mip import generate_random_mip


@pytest.fixture
def ran(monkeypatch):
    """The loops each door call ran, in order: "dual" or "primal"."""
    log = []
    dual, primal = warm_module.dual_simplex_resolve, simplex_module._solve_standard_form

    def dual_spy(*args, **kwargs):
        log.append("dual")
        return dual(*args, **kwargs)

    def primal_spy(*args, **kwargs):
        log.append("primal")
        return primal(*args, **kwargs)

    monkeypatch.setattr(warm_module, "dual_simplex_resolve", dual_spy)
    monkeypatch.setattr(simplex_module, "_solve_standard_form", primal_spy)
    return log


EQUALITY_LP = LinearProgram(
    c=[1.0, 1.0], a_ub=[[1.0, 2.0]], b_ub=[6.0], a_eq=[[1.0, -1.0]], b_eq=[0.0],
    ub=[5.0, 5.0],
)


def test_the_slack_basis_is_each_rows_own_slack():
    for lp in (EQUALITY_LP, generate_knapsack(12, seed=1).relaxation()):
        form = lp.to_standard_form()
        state = slack_start(form)
        assert state.shape == (form.m, form.n)
        assert np.array_equal(form.a[:, state.basis], np.eye(form.m))
    # The equality row's slack is fixed at 0.
    np.testing.assert_array_equal(EQUALITY_LP.to_standard_form().upper, [5.0, 5.0, np.inf, 0.0])
    # A cut row (over the structural columns) brings its own slack along.
    cut = np.zeros((1, form.n))
    cut[0, : form.num_structural] = 1.0
    grown = form.with_appended_rows(cut, np.array([3.0]))
    assert np.array_equal(slack_start(grown).basis, np.arange(grown.n - grown.m, grown.n))


@pytest.mark.parametrize(
    "problem",
    [generate_knapsack(20, seed=1), generate_random_mip(12, 6, seed=2, integer_fraction=1.0)],
    ids=["knap20", "rand-12x6"],
)
def test_a_cold_lp_is_the_dual_loop_from_its_slacks(ran, problem):
    form = problem.relaxation().to_standard_form()
    outcome = solve_warm_or_cold(form, None)
    assert ran == ["dual"]
    assert not outcome.warm_used and not outcome.audit_failed
    assert outcome.pivots == outcome.result.iterations
    reference = solve_lp(problem.relaxation())
    assert outcome.result.objective == pytest.approx(reference.objective, rel=1e-9)
    # The answer leaves its live inverse: a child pivots on it as it stands.
    warm = outcome.result.warm
    assert warm is not None and warm.inverse is not None and warm.iterate is not None
    x = form.recover_x(outcome.result.x_standard)
    var = int(problem.fractional_integers(x)[0])
    child = form.rebounded(problem.relaxation().with_bounds(var, ub=float(np.floor(x[var]))))
    assert solve_warm_or_cold(child, warm).reused_factors


def test_a_dual_infeasible_slack_basis_takes_the_primal(ran):
    # x1 has a positive cost and no upper bound: y = 0 prices it attractive.
    # The slack basis is primal feasible (b ≥ 0), so the primal loop starts
    # from it, x2 at 0 for all its positive cost.
    lp = LinearProgram(c=[1.0, 2.0], a_ub=[[1.0, 1.0]], b_ub=[4.0], ub=[np.inf, 1.0])
    form = lp.to_standard_form()
    raised, zeroed, primal = cold_start(form.c, form.upper, form.b)
    assert primal and not raised.any() and not zeroed.any()
    outcome = solve_warm_or_cold(form, None)
    assert ran == ["primal"]
    assert outcome.result.objective == pytest.approx(5.0)
    assert not outcome.warm_used and outcome.pivots == outcome.result.iterations
    # A row with b < 0 leaves the slack basis primal infeasible: the dual
    # loop runs with x1's cost zeroed and x2 at its bound, and the primal
    # loop finishes.
    ran.clear()
    lp = LinearProgram(
        c=[1.0, 2.0], a_ub=[[1.0, 1.0], [-1.0, 0.0]], b_ub=[4.0, -1.0], ub=[np.inf, 1.0]
    )
    form = lp.to_standard_form()
    raised, zeroed, primal = cold_start(form.c, form.upper, form.b)
    assert not primal and raised.tolist() == [False, True, False, False]
    assert zeroed.tolist() == [True, False, False, False]
    outcome = solve_warm_or_cold(form, None)
    assert ran == ["dual", "primal"]
    assert outcome.result.objective == pytest.approx(5.0)
    assert not outcome.warm_used and outcome.pivots == outcome.result.iterations


def test_a_tiny_boxed_cost_starts_at_its_bound_in_both_engines():
    """``cold_start``'s ``raised`` is the dual loop's at-upper hint, so a
    boxed column whose cost (5e-7) is below the loop's 1e-6 sign test
    starts at its bound, as the tableau complements it.  No row holds x0,
    so it ends where it starts."""
    lp = LinearProgram(c=[5e-7, 1.0], a_ub=[[0.0, 1.0]], b_ub=[1.0], ub=[2.0, 3.0])
    form = lp.to_standard_form()
    raised, zeroed, primal = cold_start(form.c, form.upper, form.b)
    assert raised.tolist() == [True, True, False] and not zeroed.any() and not primal
    door = solve_warm_or_cold(form, None).result
    batch = solve_lp_batch([lp])
    assert door.at_upper[0] and batch.at_upper[0, 0]
    assert door.x_standard.tolist() == batch.x_standard[0].tolist() == [2.0, 1.0, 0.0]


def test_an_equality_row_starts_from_its_fixed_slack(ran):
    """The equality row's slack, fixed at [0, 0], is basic in the slack
    basis; the dual loop drives it out like any infeasible basic."""
    outcome = solve_warm_or_cold(EQUALITY_LP.to_standard_form(), None)
    assert ran == ["dual"]
    assert outcome.result.objective == pytest.approx(4.0)
    assert not outcome.warm_used and outcome.result.warm is not None


def test_the_audit_refuses_a_wrong_slack_answer(ran, monkeypatch):
    """On ``dynamic-range`` (rows 1e-6 and 1e7 apart) the dual loop from
    the slacks stops at a wrong OPTIMAL 2.0; the audit refuses it, and the
    primal loop cannot start from its basis (singular to the LU): the
    answer is NUMERICAL, for the guard ladder, whose rescale rung answers
    4.0 as HiGHS does (``tests/guard/test_escalate.py``)."""
    form = case_by_name("dynamic-range").build().to_standard_form()
    audit, verdicts = warm_module.audit_warm_lp, []

    def audit_spy(sf, result):
        verdicts.append((result.objective, audit(sf, result)))
        return verdicts[-1][1]

    monkeypatch.setattr(warm_module, "audit_warm_lp", audit_spy)
    outcome = solve_warm_or_cold(form, None)
    assert ran == ["dual", "primal"]
    assert verdicts == [(pytest.approx(2.0), False)]
    assert outcome.result.status is LPStatus.NUMERICAL
    assert not outcome.warm_used and outcome.pivots == outcome.result.iterations > 0


def test_a_loop_that_fails_after_pivoting_counts_its_pivots(monkeypatch):
    """A dual attempt that raises mid-loop ("stalled on a zero pivot")
    still ran its pivots: they count beside the cold solve's."""
    problem = generate_random_mip(12, 8, seed=0, integer_fraction=1.0)
    lp = problem.relaxation()
    root = lp.to_standard_form()
    answer = solve_warm_or_cold(root, None).result
    # A child that takes two dual pivots from the root's state.
    child = root.rebounded(lp.with_bounds(3, lb=4.0))

    # Once the next dual loop has pivoted, its inverse solves to zeros:
    # the loop refactors, reads zeros again, and gives up, one pivot done.
    update, ftran, stalled = ExplicitInverse.update, ExplicitInverse.ftran, []

    def update_spy(self, *args):
        update(self, *args)
        if not stalled:
            stalled.append(self)

    def ftran_spy(self, b):
        return np.zeros_like(b) if stalled and self is stalled[0] else ftran(self, b)

    monkeypatch.setattr(ExplicitInverse, "update", update_spy)
    monkeypatch.setattr(ExplicitInverse, "ftran", ftran_spy)
    outcome = solve_warm_or_cold(child, WarmStartState.from_result(root, answer))
    assert not outcome.warm_used and not outcome.audit_failed
    assert outcome.result.status is LPStatus.OPTIMAL
    assert outcome.pivots == 1 + outcome.result.iterations
