"""The carried iterate has an outside referee.

A warm re-solve that reuses its parent's inverse starts from the
parent's optimal ``d``, ``y`` and ``x_B`` (``WarmStartState.iterate``)
instead of deriving them.  The hypothesis suite dives through random
bound moves — basic and nonbasic columns, up and down, onto a fixed
variable, into infeasibility — and at every step holds the carried
re-solve to a from-scratch re-solve from the same basis and inverse, to
HiGHS, to the warm audit and to the exact certificate.  The second half
hands the loop state it must not believe: another objective's iterate,
another matrix's inverse, a corrupted ``d`` / ``y`` / ``x_B``.  Whatever
comes back is the right answer or no answer, never a wrong bound.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.check.certificates import certify_lp_result
from repro.lp.dual_simplex import DualIterate
from repro.lp.problem import LinearProgram
from repro.lp.result import LPStatus
from repro.lp.warm import WarmStartState, audit_warm_lp, solve_warm_or_cold, warm_resolve

from .test_bounded_simplex import _highs as highs

# The example budget comes from the Hypothesis profile (tests/conftest.py:
# 100 derandomised in tier-1, 500 under ``--hypothesis-profile=ci``).
PROPERTY = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
ANSWERS = (LPStatus.OPTIMAL, LPStatus.INFEASIBLE)


@st.composite
def boxed_lps(draw):
    """A feasible boxed LP (every bound finite: one layout whatever moves)
    on integer data, so ties and degenerate vertices are the common case."""
    n = draw(st.integers(2, 6))
    m_ub = draw(st.integers(1, 4))
    m_eq = draw(st.integers(0, 1))

    def vector(size, lo, hi):
        return np.array(
            draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size)), dtype=float
        )

    lb = vector(n, -2, 1)
    ub = lb + vector(n, 0, 4)
    anchor = np.clip(vector(n, -1, 3), lb, ub)
    a_ub = vector(m_ub * n, -3, 3).reshape(m_ub, n)
    kwargs = dict(a_ub=a_ub, b_ub=a_ub @ anchor + vector(m_ub, 0, 3))
    if m_eq:
        a_eq = vector(n, -3, 3).reshape(1, n)
        kwargs.update(a_eq=a_eq, b_eq=a_eq @ anchor)
    return LinearProgram(c=vector(n, -3, 3), lb=lb, ub=ub, **kwargs)


#: One bound move: (variable draw, kind, amount).
MOVES = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.sampled_from(["ub_down", "ub_up", "lb_up", "lb_down", "fix"]),
        st.integers(1, 3),
    ),
    min_size=10,
    max_size=10,
)


def moved(lp, move, x):
    """``lp`` with one variable's bounds moved (still ``lb ≤ ub``)."""
    j, kind, amount = move
    j %= lp.n
    lb, ub = lp.lb.copy(), lp.ub.copy()
    if kind == "ub_down":
        ub[j] = max(lb[j], ub[j] - amount)
    elif kind == "ub_up":
        ub[j] += amount
    elif kind == "lb_up":
        lb[j] = min(ub[j], lb[j] + amount)
    elif kind == "lb_down":
        lb[j] -= amount
    else:  # a branch at its sharpest: the variable pinned beside its value
        lb[j] = ub[j] = np.clip(np.floor(x[j]) + (amount == 3), lb[j], ub[j])
    return lp.with_bound_vectors(lb, ub)


def assert_right(lp, form, result):
    """``result`` is HiGHS's verdict, audited and certified."""
    oracle = highs(lp)
    if result.status is LPStatus.INFEASIBLE:
        assert oracle.status == 2
        return
    assert result.status is LPStatus.OPTIMAL and oracle.status == 0
    assert result.objective == pytest.approx(-oracle.fun, rel=1e-7, abs=1e-7)
    assert audit_warm_lp(form, result)
    result.x = form.recover_x(result.x_standard)
    assert certify_lp_result(lp, result, standard_form=form).ok


def seeded(lp):
    """``(root form, state, x)``: a warm state with a live inverse and iterate."""
    root = lp.to_standard_form()
    cold = solve_warm_or_cold(root, None).result
    assume(cold.status is LPStatus.OPTIMAL and np.all(cold.basis < root.n))
    outcome = warm_resolve(root, WarmStartState.from_result(root, cold))
    assert outcome is not None and not outcome.audit_failed
    state = outcome.result.warm
    assert state.iterate is not None and state.inverse is not None
    return root, state, root.recover_x(outcome.result.x_standard)


@PROPERTY
@given(lp=boxed_lps(), moves=MOVES)
def test_a_dive_of_bound_moves_carried_equals_from_scratch(lp, moves):
    root, state, x = seeded(lp)
    carried_steps = 0
    for move in moves:
        child_lp = moved(lp, move, x)
        child = root.rebounded(child_lp)
        assert child.a is root.a and child.c is root.c
        carried = warm_resolve(child, state)
        scratch = warm_resolve(child, replace(state, iterate=None))
        # Bounds only move: a boxed column sits where its d_j wants, so the
        # start is never refused, and the parent's inverse is reused.
        assert carried is not None and scratch is not None
        assume(carried.result.status in ANSWERS and scratch.result.status in ANSWERS)
        assert not carried.audit_failed and not scratch.audit_failed
        assert carried.result.status is scratch.result.status
        assert_right(child_lp, child, carried.result)
        if carried.result.status is LPStatus.INFEASIBLE:
            continue  # the parent state stands; try the next move from it
        assert carried.reused_factors and scratch.reused_factors
        assert carried.result.objective == pytest.approx(
            scratch.result.objective, rel=1e-9, abs=1e-9
        )
        # The same basic columns (rounding may order a tie's pivots, and so
        # the rows they land in, differently) wherever the optimum has one
        # basis: a degenerate vertex or a tied objective has several.
        if unique_basis(child, scratch):
            assert sorted(carried.result.basis) == sorted(scratch.result.basis)
            # (A fixed column sits on both bounds; its label is the sign of
            # a d_j that may be a rounding error either side of zero.)
            boxed = child.upper > 0.0
            assert np.array_equal(
                carried.result.at_upper[boxed], scratch.result.at_upper[boxed]
            )
        # What the next step inherits is what a from-scratch set-up would derive.
        assert_iterate_is_from_scratch(child, carried)
        lp, state, carried_steps = child_lp, carried.result.warm, carried_steps + 1
        x = child.recover_x(carried.result.x_standard)
    assume(carried_steps)


def assert_iterate_is_from_scratch(form, outcome):
    """The state's iterate is what ``form`` says at its basis and status."""
    basis, iterate = outcome.result.warm.basis, outcome.result.warm.iterate
    b_inv = np.linalg.inv(form.a[:, basis])
    y = form.c[basis] @ b_inv
    assert iterate.y == pytest.approx(y, abs=1e-7)
    d = form.c - form.a.T @ y
    d[basis] = 0.0
    assert iterate.d == pytest.approx(d, abs=1e-7)
    rhs = form.b - form.a @ iterate.x_nonbasic
    assert iterate.x_basic == pytest.approx(b_inv @ rhs, abs=1e-7)
    assert iterate.b is form.b and iterate.c is form.c
    assert not iterate.x_nonbasic[basis].any()


def unique_basis(form, outcome, eps=1e-7):
    """No basic variable on a bound and no free nonbasic priced at zero."""
    basis, iterate = outcome.result.basis, outcome.result.warm.iterate
    inside = (iterate.x_basic > eps) & (iterate.x_basic < form.upper[basis] - eps)
    nonbasic = form.upper > 0.0
    nonbasic[basis] = False
    return inside.all() and (np.abs(iterate.d[nonbasic]) > eps).all()


def answered(outcome):
    return outcome is not None and not outcome.audit_failed and outcome.result.status in ANSWERS


@PROPERTY
@given(lp=boxed_lps(), moves=MOVES, data=st.data())
def test_an_iterate_priced_under_another_objective_is_rederived(lp, moves, data):
    root, state, x = seeded(lp)
    c = np.array(
        data.draw(st.lists(st.integers(-3, 3), min_size=lp.n, max_size=lp.n)), dtype=float
    )
    assume(not np.array_equal(c, lp.c))
    other = moved(replace(lp, c=c), moves[0], x)
    child = other.to_standard_form()
    carried = warm_resolve(child, state)
    scratch = warm_resolve(child, replace(state, iterate=None))
    assert (carried is None) == (scratch is None)  # not dual feasible under c: both refuse
    if carried is None:
        return
    assert carried.result.status is scratch.result.status
    if answered(carried):
        assert_right(other, child, carried.result)
        if carried.result.status is LPStatus.OPTIMAL and unique_basis(child, scratch):
            assert sorted(carried.result.basis) == sorted(scratch.result.basis)


@PROPERTY
@given(lp=boxed_lps(), moves=MOVES, data=st.data())
def test_another_matrix_under_the_state_is_never_a_wrong_answer(lp, moves, data):
    root, state, x = seeded(lp)
    shape = lp.a_ub.shape
    a_ub = np.array(
        data.draw(st.lists(st.integers(-3, 3), min_size=lp.a_ub.size, max_size=lp.a_ub.size)),
        dtype=float,
    ).reshape(shape)
    assume(not np.array_equal(a_ub, lp.a_ub))
    other = moved(replace(lp, a_ub=a_ub), moves[0], x)
    # Same shape, same c object, another A: every trust condition the loop
    # can check holds, so the audit and the infeasibility proof must refuse.
    child = replace(other.to_standard_form(), c=root.c)
    outcome = warm_resolve(child, state)
    if answered(outcome):
        assert_right(other, child, outcome.result)


@PROPERTY
@given(
    lp=boxed_lps(),
    moves=MOVES,
    field=st.sampled_from(["d", "y", "x_basic", "b", "x_nonbasic"]),
    noise=st.lists(st.integers(-3, 3), min_size=12, max_size=12),
)
def test_a_corrupted_iterate_is_never_a_wrong_answer(lp, moves, field, noise):
    root, state, x = seeded(lp)
    good = getattr(state.iterate, field)
    bad = good + np.resize(np.array(noise, dtype=float), good.shape)
    assume(not np.array_equal(bad, good))
    stale = replace(state, iterate=replace(state.iterate, **{field: bad}))
    child_lp = moved(lp, moves[0], x)
    child = root.rebounded(child_lp)
    outcome = warm_resolve(child, stale)
    if answered(outcome):
        assert_right(child_lp, child, outcome.result)


def test_a_cold_state_carries_nothing_and_a_warm_one_everything():
    lp = LinearProgram(
        c=[3.0, 2.0, 1.0], a_ub=[[1.0, 1.0, 1.0], [2.0, 1.0, 0.0]], b_ub=[4.5, 5.5],
        ub=[3.0, 3.0, 3.0],
    )
    root = lp.to_standard_form()
    answer = solve_warm_or_cold(root, None).result
    # A cold answer is the dual loop's from the slack basis: it carries
    # its state too.  Its basis alone carries nothing.
    assert answer.warm.inverse is not None and answer.warm.iterate is not None
    cold = WarmStartState.from_result(root, answer).demoted()
    assert cold.inverse is None and cold.iterate is None
    warm = warm_resolve(root, cold)
    iterate = warm.result.warm.iterate
    assert isinstance(iterate, DualIterate) and iterate.c is root.c and iterate.b is root.b
    assert iterate.y is warm.result.duals  # the audit reads the carried y
    basis = warm.result.warm.basis
    assert np.allclose(root.a[:, basis] @ iterate.x_basic + root.a @ iterate.x_nonbasic, root.b)
    assert np.allclose(iterate.d, root.c - root.a.T @ iterate.y) and not iterate.d[basis].any()
    # Zero pivots: the child's iterate is the parent's arrays, not copies.
    again = warm_resolve(root, warm.result.warm)
    assert again.result.iterations == 0 and again.reused_factors
    kept = again.result.warm.iterate
    assert kept.d is iterate.d and kept.y is iterate.y and kept.x_basic is iterate.x_basic
