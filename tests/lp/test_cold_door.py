"""The cold door against HiGHS: no phase 1, the same answers.

A cold solve (:func:`repro.lp.warm.solve_warm_or_cold` with no state) is
the dual loop from the slack basis with every unboxed positive cost
zeroed, audited, then the primal loop from the basis it leaves when
costs were zeroed or the audit refused the answer.  The LPs drawn here
are the ones where that matters: unboxed positive costs (the zeroing
and the primal cleanup), equality rows (their slacks fixed at 0),
infeasible ones (the dual loop's proof reads ``A``, ``b`` and ``upper``,
never ``c``), unbounded ones (the cleanup's ray) and ones with no rows.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.lp.problem import LinearProgram
from repro.lp.result import LPStatus
from repro.lp.warm import solve_warm_or_cold

from .test_bounded_simplex import PROPERTY, assert_agrees_with_highs, assert_certified


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
