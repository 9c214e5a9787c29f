"""The cold door against HiGHS: no phase 1, the same answers.

A cold solve (:func:`repro.lp.warm.solve_warm_or_cold` with no state)
starts from the slack basis as :func:`repro.lp.warm.cold_start` says.
A primal feasible slack basis with an unboxed positive cost is the
primal loop's start; any other is the dual loop's, with every unboxed
positive cost zeroed, audited, then the primal loop from the basis it
leaves when costs were zeroed or the audit refused the answer.  The LPs
drawn here are the ones where that matters: unboxed positive costs (the
primal start, or the zeroing and the primal cleanup), equality rows
(their slacks fixed at 0), infeasible ones (the dual loop's proof reads
``A``, ``b`` and ``upper``, never ``c``), unbounded ones (the cleanup's
ray) and ones with no rows.

The degenerate family (``_degenerate.py``) is where the dual loop
stalls: after ``DEGENERATE_SWITCH`` pivots with a zero dual step it
perturbs its costs once, and the door re-prices the answer under the
true costs, the primal loop finishing it when that point is not dual
feasible.
"""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro import api
from repro.lp import dual_simplex, warm
from repro.lp.dual_simplex import PERTURBATION, _perturbed
from repro.lp.problem import LinearProgram
from repro.lp.result import LPStatus
from repro.lp.simplex import solve_standard_form
from repro.lp.warm import (
    audit_warm_lp,
    cold_start,
    slack_start,
    solve_lp,
    solve_warm_or_cold,
    warm_resolve,
)

from ._degenerate import degenerate_lp
from .test_bounded_simplex import PROPERTY, assert_agrees_with_highs, assert_certified

#: Seeds of the family whose cold solve ran into ITERATION_LIMIT, through
#: ``solve_lp`` and (with equality rows) ``api.solve``, while the dual
#: loop had no stall rule.
STALLED = [15, 31, 45, 62, 90, 92, 101, 119, 125, 134]


@st.composite
def cold_lps(draw):
    """A small LP, half the time with an unboxed column of positive cost."""
    n = draw(st.integers(1, 5))

    def vector(size, lo, hi):
        return np.array(draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size)), float)

    c = vector(n, -3, 3)
    boxed = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    ub = np.where(boxed, vector(n, 0, 4), np.inf)
    if draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        ub[j], c[j] = np.inf, draw(st.integers(1, 3))
    lb = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 1.0, -2.0]), min_size=n, max_size=n)))
    ub = np.maximum(ub + lb, lb)
    kwargs = {}
    m_ub, m_eq = draw(st.integers(0, 3)), draw(st.integers(0, 2))
    if m_ub:
        kwargs["a_ub"] = vector(m_ub * n, -3, 3).reshape(m_ub, n)
        kwargs["b_ub"] = vector(m_ub, -3, 6)
    if m_eq:
        kwargs["a_eq"] = vector(m_eq * n, -3, 3).reshape(m_eq, n)
        # Anchored on a box point half the time (feasible rows), free otherwise.
        anchor = np.minimum(lb + vector(n, 0, 2), ub)
        kwargs["b_eq"] = kwargs["a_eq"] @ anchor if draw(st.booleans()) else vector(m_eq, -3, 3)
    return LinearProgram(c=c, lb=lb, ub=ub, **kwargs)


@PROPERTY
@given(lp=cold_lps())
def test_cold_answers_agree_with_highs(lp):
    sf = lp.to_standard_form()
    outcome = solve_warm_or_cold(sf, None)
    res = outcome.result
    assert not outcome.warm_used and outcome.pivots == res.iterations
    assert_agrees_with_highs(lp, res)
    if res.status is LPStatus.OPTIMAL:
        assert_certified(lp, sf, res)


@pytest.mark.parametrize("seed", STALLED)
def test_degenerate_family_finishes(seed):
    lp = degenerate_lp(seed)
    assert_agrees_with_highs(lp, solve_lp(lp))
    lp = degenerate_lp(seed, equalities=True)
    report = api.solve(lp)
    assert report.status != "iteration_limit" and "escalation" not in report.metrics
    assert_agrees_with_highs(lp, report.lp_result)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), equalities=st.booleans())
def test_degenerate_door_answers_agree_with_highs(seed, equalities):
    lp = degenerate_lp(seed, equalities, rows=(10, 30), cols=(10, 40))
    assert_agrees_with_highs(lp, solve_warm_or_cold(lp.to_standard_form(), None).result)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1))
def test_a_primal_start_pivots_as_the_primal_loop_from_the_slacks(seed):
    """The family's 0..2 cost regime with ``A ≥ 0``: ``b ≥ 0`` makes the
    slack basis primal feasible, and the dual start would zero an unboxed
    positive cost.  The door's answer is the primal loop's from the slack
    basis, pivot for pivot and bit for bit."""
    lp = degenerate_lp(seed - seed % 3 + 2, nonnegative=True, rows=(10, 30), cols=(10, 40))
    sf = lp.to_standard_form()
    assume(((sf.c > 0.0) & np.isinf(sf.upper)).any())
    raised, zeroed, primal = cold_start(sf.c, sf.upper, sf.b)
    assert primal and not raised.any() and not zeroed.any()
    door = solve_warm_or_cold(sf, None)
    loop = solve_standard_form(sf, slack_start(sf).basis)
    assert door.result.status is loop.status
    assert door.pivots == door.result.iterations == loop.iterations
    for name in ("objective", "x_standard", "duals", "basis", "at_upper"):
        assert np.array_equal(getattr(door.result, name), getattr(loop, name)), name


def test_perturbation_is_deterministic_and_keeps_the_start_dual_feasible():
    sf = degenerate_lp(1, boxed=True).to_standard_form()
    # The slack start: y = 0, so d = c, and a boxed column sits where d wants.
    d = sf.c.copy()
    movable = sf.upper > 0.0
    movable[slack_start(sf).basis] = False
    at_upper = movable & np.isfinite(sf.upper) & (d > 0.0)
    cost, shifted = _perturbed(sf.c, d, movable, at_upper)
    again = _perturbed(sf.c, d, movable, at_upper)
    np.testing.assert_array_equal(cost, again[0])
    np.testing.assert_array_equal(shifted, again[1])
    # Reduced costs move with the costs (y does not), away from zero on
    # the dual-feasible side, and only where a column can move.
    np.testing.assert_array_equal(shifted - d, cost - sf.c)
    assert np.all(shifted[movable & ~at_upper] < 0.0) and np.all(shifted[at_upper] > 0.0)
    assert np.all(shifted[~movable] == d[~movable])
    step = np.abs(cost - sf.c)[movable]
    assert np.all(step >= PERTURBATION * (1.0 + np.abs(sf.c[movable])))
    assert np.all(step <= 2.0 * PERTURBATION * (1.0 + np.abs(sf.c[movable])))


def test_a_perturbed_answer_is_finished_under_the_true_costs(monkeypatch):
    """A shift large enough to move the optimum: the loop's own answer is
    optimal only for its perturbed costs, and ``warm_resolve`` hands back
    the primal loop's finish of it, with no audit to catch it."""
    monkeypatch.setattr(dual_simplex, "PERTURBATION", 1.0)
    monkeypatch.setattr(dual_simplex, "DEGENERATE_SWITCH", 1)
    finished = []
    primal_loop = warm.solve_standard_form

    def primal(*args, **kwargs):
        finished.append(primal_loop(*args, **kwargs))
        return finished[-1]

    monkeypatch.setattr(warm, "solve_standard_form", primal)
    lp = degenerate_lp(1, boxed=True, rows=(3, 8), cols=(3, 8))
    sf = lp.to_standard_form()
    loop = dual_simplex.dual_simplex_resolve(sf, slack_start(sf))
    assert loop.status is LPStatus.OPTIMAL and loop.warm.iterate.c is not sf.c
    assert not audit_warm_lp(sf, loop)
    outcome = warm_resolve(sf, slack_start(sf), audit=False)
    assert len(finished) == 1 and outcome.warm_used
    res = outcome.result
    assert res.iterations == loop.iterations + finished[0].iterations
    assert_agrees_with_highs(lp, res)
    assert_certified(lp, sf, res)
