"""Bounded-variable revised simplex: an outside referee from day one.

The primal and the dual loop keep ``0 ≤ x ≤ upper`` beside the basis
(nonbasic-at-upper mask, three-way primal ratio test, long-step dual
ratio test) on ``to_standard_form()`` — real rows only.  The hypothesis
suite holds both loops to HiGHS and to the same LP with its bounds posed
as rows: random boxed LPs with mixed finite / infinite uppers, fixed
variables, variables free below, equality and redundant rows, infeasible
and unbounded cases.  Every optimal vertex must pass the warm audit and
the exact certificate, and its basis and at-upper mask must re-solve in
zero dual pivots.

The last test pins the bounds-as-rows side: with no ``upper`` the loops
take the pivots recorded in ``golden_row_form_pivots.json``.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.check.certificates import certify_lp_result
from repro.lp.dual_simplex import dual_simplex_resolve
from repro.lp.problem import LinearProgram
from repro.lp.result import LPStatus
from repro.lp.warm import WarmStartState, audit_warm_lp, solve_lp, solve_warm_or_cold, warm_resolve
from repro.problems.knapsack import generate_knapsack

from . import _row_form_pins

# The example budget comes from the Hypothesis profile (tests/conftest.py:
# 100 derandomised in tier-1, 500 under ``--hypothesis-profile=ci``).
PROPERTY = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])

WIDTHS = [np.inf, np.inf, 0.0, 1.0, 2.0, 5.0]


@st.composite
def boxed_lps(draw, neighbour=False):
    """A small LP with every bound pattern the two layouts treat apart.

    Integer data makes ties and degenerate vertices the common case,
    hundredths the exception.  Anchored instances put a box point on the
    equality rows (feasible); the rest draw the rhs freely (mostly
    infeasible once equality rows exist).  With ``neighbour`` a second LP
    is returned that differs in bounds only — a finite lower bound stays
    finite and a variable free below keeps or keeps lacking its bound
    row, so the two share one standard-form matrix.
    """
    n = draw(st.integers(1, 5))
    unit = 1.0 if draw(st.booleans()) else 0.01
    reach = 3 if unit == 1.0 else 300

    def vector(size, lo, hi):
        values = draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size))
        return np.array(values, dtype=float) * unit

    def widths():
        return np.array(draw(st.lists(st.sampled_from(WIDTHS), min_size=n, max_size=n)))

    lb = np.array(
        draw(st.lists(st.sampled_from([0.0, 0.0, -2.0, 1.0, -np.inf]), min_size=n, max_size=n))
    )
    # Free below: the bound itself is drawn (finite keeps its row).
    floor = np.where(np.isfinite(lb), lb, 0.0)
    ub = floor + widths()
    kwargs = {}
    anchored = draw(st.booleans())
    anchor = np.clip(vector(n, 0, 2), np.where(np.isfinite(lb), lb, -1.0), ub)
    m_ub = draw(st.integers(0, 4))
    if m_ub:
        kwargs["a_ub"] = vector(m_ub * n, -reach, reach).reshape(m_ub, n)
        kwargs["b_ub"] = (
            kwargs["a_ub"] @ anchor + vector(m_ub, 0, reach)
            if anchored
            else vector(m_ub, -reach, 2 * reach)
        )
    m_eq = draw(st.integers(0, 2))
    if m_eq:
        a_eq = vector(m_eq * n, -reach, reach).reshape(m_eq, n)
        b_eq = a_eq @ anchor if anchored else vector(m_eq, -reach, reach)
        if draw(st.booleans()):  # a redundant copy of the first row
            a_eq, b_eq = np.vstack([a_eq, 2 * a_eq[0]]), np.append(b_eq, 2 * b_eq[0])
        kwargs["a_eq"], kwargs["b_eq"] = a_eq, b_eq
    lp = LinearProgram(c=vector(n, -reach, reach), lb=lb, ub=ub, **kwargs)
    if not neighbour:
        return lp
    delta = np.array(
        draw(st.lists(st.sampled_from([0.0, 0.0, -1.0, 1.0]), min_size=n, max_size=n))
    )
    other_lb = np.where(np.isfinite(lb), lb + delta, lb)
    other_ub = np.where(np.isfinite(lb), floor + delta + widths(), ub + delta)
    return lp, LinearProgram(c=lp.c, lb=other_lb, ub=other_ub, **kwargs)


def _highs(lp):
    """HiGHS's verdict; a non-optimal one is asked again without presolve
    (see ``HIGHS_PRESOLVE_MISJUDGED`` in ``test_batch_simplex.py``)."""
    kwargs = dict(
        A_ub=lp.a_ub, b_ub=lp.b_ub, A_eq=lp.a_eq, b_eq=lp.b_eq,
        bounds=[
            (lo if np.isfinite(lo) else None, hi if np.isfinite(hi) else None)
            for lo, hi in zip(lp.lb, lp.ub)
        ],
        method="highs",
    )
    res = linprog(-lp.c, **kwargs)
    if res.status in (2, 3, 4):
        res = linprog(-lp.c, options={"presolve": False}, **kwargs)
    return res


def assert_agrees_with_highs(lp, ours):
    # Each loop has a stall rule (DESIGN.md "Degeneracy lives in the
    # loops"): no answer runs out of pivots.
    assert ours.status is not LPStatus.ITERATION_LIMIT
    oracle = _highs(lp)
    if ours.status is LPStatus.OPTIMAL:
        assert oracle.status == 0
        assert ours.objective == pytest.approx(-oracle.fun, rel=1e-6, abs=1e-6)
    elif ours.status is LPStatus.INFEASIBLE:
        assert oracle.status == 2
    else:
        assert ours.status is LPStatus.UNBOUNDED
        assert oracle.status in (3, 4)


def assert_certified(lp, sf, res):
    """A certified optimum whose basis and at-upper mask are optimal as
    they stand (what a cut round or a child re-solves from)."""
    assert res.basis.shape == (sf.m,) and len(set(res.basis.tolist())) == sf.m
    assert res.duals.shape == (sf.m,) and res.x_standard.shape == (sf.n,)
    assert res.at_upper.shape == (sf.n,) and not res.at_upper[res.basis[res.basis < sf.n]].any()
    assert audit_warm_lp(sf, res)
    res.x = sf.recover_x(res.x_standard)
    assert certify_lp_result(lp, res, standard_form=sf).ok
    if np.all(res.basis < sf.n):
        assert np.linalg.matrix_rank(sf.a[:, res.basis]) == sf.m
        again = dual_simplex_resolve(sf, WarmStartState.from_result(sf, res))
        assert again.status is LPStatus.OPTIMAL and again.iterations == 0


@PROPERTY
@given(lp=boxed_lps())
def test_cold_primal_agrees_with_highs_on_both_layouts(lp):
    """A cold solve through the door (the dual loop from the slack basis,
    the primal loop finishing it): bounds beside the basis, and the same
    LP with them posed as rows."""
    sf = lp.to_standard_form()
    bounded = solve_warm_or_cold(sf, None).result
    rows = solve_warm_or_cold(sf.with_bounds_as_rows(), None).result
    assert_agrees_with_highs(lp, bounded)
    assert_agrees_with_highs(lp, rows)
    assert bounded.status is rows.status
    if bounded.status is not LPStatus.OPTIMAL:
        return
    assert bounded.objective == pytest.approx(rows.objective, rel=1e-6, abs=1e-6)
    assert_certified(lp, sf, bounded)


@PROPERTY
@given(pair=boxed_lps(neighbour=True))
def test_warm_dual_from_a_perturbed_bound_neighbour(pair):
    lp, neighbour = pair
    sf, sf_n = lp.to_standard_form(), neighbour.to_standard_form()
    assert np.array_equal(sf.a, sf_n.a)  # bounds never touch the matrix
    parent = solve_warm_or_cold(sf_n, None).result
    assume(parent.status is LPStatus.OPTIMAL and np.all(parent.basis < sf_n.n))
    # One warm pass on the neighbour itself leaves its live factorization.
    seeded = warm_resolve(sf_n, WarmStartState.from_result(sf_n, parent))
    assert seeded is not None and not seeded.audit_failed
    assert seeded.result.iterations == 0
    outcome = warm_resolve(sf, seeded.result.warm)
    # Only a column that lost its box with d_j > 0 may refuse the start.
    assume(outcome is not None)
    assert not outcome.audit_failed
    assert_agrees_with_highs(lp, outcome.result)
    if outcome.result.status is LPStatus.OPTIMAL:
        assert outcome.reused_factors
        assert_certified(lp, sf, outcome.result)


@PROPERTY
@given(lp=boxed_lps())
def test_solve_lp_returns_the_standard_form_answer(lp):
    res = solve_lp(lp)
    assert_agrees_with_highs(lp, res)
    if res.status is not LPStatus.OPTIMAL:
        return
    x = res.x
    assert_certified(lp, lp.to_standard_form(), res)
    assert np.array_equal(res.x, x)
    assert np.all(x >= lp.lb - 1e-9) and np.all(x <= lp.ub + 1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_branching_chain_is_a_run_of_bound_edits(seed):
    """A dive: each child is its parent plus one bound, re-solved on the
    parent's live factorization — zero-width boxes included."""
    problem = generate_knapsack(14, seed=seed, correlation="strong")
    lp = problem.relaxation()
    sf = lp.to_standard_form()
    assert sf.a.shape == (1, problem.n + 1)
    res = solve_warm_or_cold(sf, None).result
    state, form = WarmStartState.from_result(sf, res), sf
    rng = np.random.default_rng(seed)
    for depth in range(10):
        x = form.recover_x(res.x_standard)
        fractional = problem.fractional_integers(x)
        if fractional.size == 0:
            break
        var = int(fractional[0])
        lp = (
            lp.with_bounds(var, ub=np.floor(x[var]))
            if rng.random() < 0.5
            else lp.with_bounds(var, lb=np.ceil(x[var]))
        )
        child = lp.to_standard_form()
        assert np.array_equal(child.a, sf.a)
        outcome = warm_resolve(child, state)
        assert outcome is not None and not outcome.audit_failed
        oracle = _highs(lp)
        if outcome.result.status is LPStatus.INFEASIBLE:
            assert oracle.status == 2
            break
        assert outcome.reused_factors  # a cold answer leaves its live inverse too
        assert outcome.result.objective == pytest.approx(-oracle.fun, rel=1e-9)
        assert_certified(lp, child, outcome.result)
        res, state, form = outcome.result, outcome.result.warm, child


def test_box_only_lp_is_solved_without_a_basis():
    lp = LinearProgram(c=[1.0, -2.0, 3.0, 0.0], lb=[0.0, 1.0, -1.0, 2.0], ub=[2.0, 5.0, 4.0, 2.0])
    sf = lp.to_standard_form()
    assert sf.a.shape == (0, 4)
    res = solve_warm_or_cold(sf, None).result
    assert res.status is LPStatus.OPTIMAL and res.objective == pytest.approx(12.0)
    assert_certified(lp, sf, res)
    unbounded = LinearProgram(c=[1.0, 1.0], ub=[3.0, np.inf])
    res = solve_warm_or_cold(unbounded.to_standard_form(), None).result
    assert res.status is LPStatus.UNBOUNDED


def test_row_form_inputs_take_the_recorded_pivots():
    golden = json.loads(_row_form_pins.GOLDEN.read_text())
    assert _row_form_pins.pins() == golden
