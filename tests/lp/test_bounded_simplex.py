"""Bounded-variable revised simplex: an outside referee from day one.

The primal and the dual loop keep ``0 ≤ x ≤ upper`` beside the basis
(nonbasic-at-upper mask, three-way primal ratio test, long-step dual
ratio test) and the tree solves on ``to_bounded_form()`` — real rows
only.  The hypothesis suite holds both loops to HiGHS and to the row
form: random boxed LPs with mixed finite / infinite uppers, fixed
variables, variables free below, equality and redundant rows, infeasible
and unbounded cases.  Every optimal vertex is exported to
``to_standard_form()`` indexing and must pass the warm audit and the
exact certificate there, and the two index maps must invert each other.

The last test pins the row-form side: with ``upper=None`` both loops
take the pivots recorded before they learned bounds.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.check.certificates import certify_lp_result
from repro.lp.dual_simplex import dual_simplex_resolve
from repro.lp.problem import LinearProgram, export_row_form, import_row_form
from repro.lp.result import LPStatus
from repro.lp.simplex import solve_lp, solve_standard_form
from repro.lp.warm import audit_warm_lp, state_from_result, warm_resolve
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
    row, so the two share one bounded-form matrix.
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
    # Dantzig pricing can cycle at a degenerate vertex; that is the guard
    # ladder's jurisdiction, not a property of the bound handling.
    assume(ours.status is not LPStatus.ITERATION_LIMIT)
    oracle = _highs(lp)
    if ours.status is LPStatus.OPTIMAL:
        assert oracle.status == 0
        assert ours.objective == pytest.approx(-oracle.fun, rel=1e-6, abs=1e-6)
    elif ours.status is LPStatus.INFEASIBLE:
        assert oracle.status == 2
    else:
        assert ours.status is LPStatus.UNBOUNDED
        assert oracle.status in (3, 4)


def assert_exports_and_inverts(lp, bf, res):
    """The row-form triple is a certified optimum; the maps are inverses."""
    sf = lp.to_standard_form()
    row = export_row_form(lp, bf, res)
    assert row.basis.shape == (sf.m,) and len(set(row.basis.tolist())) == sf.m
    assert row.duals.shape == (sf.m,) and row.x_standard.shape == (sf.n,)
    assert audit_warm_lp(sf, row)
    row.x = sf.recover_x(row.x_standard)
    assert certify_lp_result(lp, row, standard_form=sf).ok
    if np.all(row.basis < sf.n):
        assert np.linalg.matrix_rank(sf.a[:, row.basis]) == sf.m
        # ... and an optimal *basis* there (what a cut round re-solves
        # from): a fixed column with d_j > 0 must be basic in its bound row.
        again = dual_simplex_resolve(sf, row.basis)
        assert again.status is LPStatus.OPTIMAL and again.iterations == 0
    back = import_row_form(lp, bf, row)
    assert np.array_equal(back.basis, res.basis)
    assert np.array_equal(back.at_upper, res.at_upper)
    assert np.array_equal(back.x_standard, res.x_standard)
    assert np.array_equal(back.duals, res.duals)
    return sf, row


@PROPERTY
@given(lp=boxed_lps())
def test_cold_primal_agrees_with_highs_on_both_layouts(lp):
    bf, sf = lp.to_bounded_form(), lp.to_standard_form()
    bounded, rows = solve_standard_form(bf), solve_standard_form(sf)
    assert_agrees_with_highs(lp, bounded)
    assert_agrees_with_highs(lp, rows)
    assert bounded.status is rows.status
    if bounded.status is not LPStatus.OPTIMAL:
        return
    assert bounded.objective == pytest.approx(rows.objective, rel=1e-6, abs=1e-6)
    assert audit_warm_lp(bf, bounded)
    assert_exports_and_inverts(lp, bf, bounded)
    # The other composition: a row-form vertex survives import → export
    # (as a set: the export orders the basis by row).
    if np.all(rows.basis < sf.n):
        there = export_row_form(lp, bf, import_row_form(lp, bf, rows))
        assert sorted(there.basis.tolist()) == sorted(rows.basis.tolist())
        assert there.x_standard == pytest.approx(rows.x_standard, abs=1e-9)
        assert there.duals == pytest.approx(rows.duals, abs=1e-7)


@PROPERTY
@given(pair=boxed_lps(neighbour=True))
def test_warm_dual_from_a_perturbed_bound_neighbour(pair):
    lp, neighbour = pair
    bf, bf_n = lp.to_bounded_form(), neighbour.to_bounded_form()
    assert np.array_equal(bf.a, bf_n.a)  # bounds never touch the matrix
    parent = solve_standard_form(bf_n)
    assume(parent.status is LPStatus.OPTIMAL and np.all(parent.basis < bf_n.n))
    # One warm pass on the neighbour itself leaves its live factorization.
    seeded = warm_resolve(bf_n, state_from_result(bf_n, parent))
    assert seeded is not None and not seeded.audit_failed
    assert seeded.result.iterations == 0
    outcome = warm_resolve(bf, seeded.state)
    # Only a column that lost its box with d_j > 0 may refuse the start.
    assume(outcome is not None)
    assert not outcome.audit_failed
    assert_agrees_with_highs(lp, outcome.result)
    if outcome.result.status is LPStatus.OPTIMAL:
        assert outcome.reused_factors
        assert_exports_and_inverts(lp, bf, outcome.result)


@PROPERTY
@given(lp=boxed_lps())
def test_solve_lp_returns_the_row_form_triple(lp):
    res = solve_lp(lp)
    assert_agrees_with_highs(lp, res)
    if res.status is not LPStatus.OPTIMAL:
        return
    sf = lp.to_standard_form()
    assert res.at_upper is None
    assert audit_warm_lp(sf, res)
    assert certify_lp_result(lp, res, standard_form=sf).ok
    assert np.all(res.x >= lp.lb - 1e-9) and np.all(res.x <= lp.ub + 1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_branching_chain_is_a_run_of_bound_edits(seed):
    """A dive: each child is its parent plus one bound, re-solved on the
    parent's live factorization — zero-width boxes included."""
    problem = generate_knapsack(14, seed=seed, correlation="strong")
    lp = problem.relaxation()
    bf = lp.to_bounded_form()
    assert bf.a.shape == (1, problem.n + 1)
    res = solve_standard_form(bf)
    state, form = state_from_result(bf, res), bf
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
        child = lp.to_bounded_form()
        assert np.array_equal(child.a, bf.a)
        outcome = warm_resolve(child, state)
        assert outcome is not None and not outcome.audit_failed
        oracle = _highs(lp)
        if outcome.result.status is LPStatus.INFEASIBLE:
            assert oracle.status == 2
            break
        assert outcome.reused_factors == (depth > 0)
        assert outcome.result.objective == pytest.approx(-oracle.fun, rel=1e-9)
        assert_exports_and_inverts(lp, child, outcome.result)
        res, state, form = outcome.result, outcome.state, child


def test_box_only_lp_is_solved_without_a_basis():
    lp = LinearProgram(c=[1.0, -2.0, 3.0, 0.0], lb=[0.0, 1.0, -1.0, 2.0], ub=[2.0, 5.0, 4.0, 2.0])
    bf = lp.to_bounded_form()
    assert bf.a.shape == (0, 4)
    res = solve_standard_form(bf)
    assert res.status is LPStatus.OPTIMAL and res.objective == pytest.approx(12.0)
    assert_exports_and_inverts(lp, bf, res)
    unbounded = LinearProgram(c=[1.0, 1.0], ub=[3.0, np.inf])
    assert solve_standard_form(unbounded.to_bounded_form()).status is LPStatus.UNBOUNDED


def test_row_form_inputs_take_the_recorded_pivots():
    golden = json.loads(_row_form_pins.GOLDEN.read_text())
    assert _row_form_pins.pins() == golden
