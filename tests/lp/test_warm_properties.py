"""Satellite: property-based warm-vs-cold agreement (hypothesis).

For *any* generated LP with a planted feasible point, a warm dual-simplex
re-solve seeded from the unperturbed problem's optimal basis must agree
with a cold solve of the perturbed problem — for random rhs, objective,
and bound-tightening moves (the §5.3 reuse regime).  A warm state that
cannot seed the re-solve returns ``None`` (the caller cold-solves), and
an OPTIMAL warm answer must pass the from-scratch KKT audit; what is
never allowed is a conclusive warm answer that contradicts cold.

Separately, the sensitivity contract behind serve's range hits: when an
rhs move stays inside :func:`repro.lp.sensitivity.analyze`'s rhs ranges,
the optimal basis is unchanged and the re-solved objective must equal
the dual-predicted value ``objective + y·Δb`` — the zero-pivot answer.
"""

import dataclasses

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.lp.problem import LinearProgram
from repro.lp.result import LPStatus
from repro.lp.sensitivity import analyze
from repro.lp.warm import WarmStartState, audit_warm_lp, solve_lp, solve_warm_or_cold, warm_resolve

#: A quarter of the active profile's budget: 25 under tier-1, 125 under
#: ``--hypothesis-profile=ci``.
SLOW = settings(
    max_examples=max(1, settings().max_examples // 4),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_TERMINAL = (LPStatus.OPTIMAL, LPStatus.INFEASIBLE, LPStatus.UNBOUNDED)

coeff = st.integers(min_value=-3, max_value=3)
cost = st.integers(min_value=-5, max_value=5)


@st.composite
def feasible_lps(draw):
    """Random integer-grid LP made feasible by planting x0 inside it."""
    n = draw(st.integers(min_value=2, max_value=4))
    m = draw(st.integers(min_value=1, max_value=4))
    a = np.array(
        draw(
            st.lists(
                st.lists(coeff, min_size=n, max_size=n), min_size=m, max_size=m
            )
        ),
        dtype=float,
    )
    c = np.array(draw(st.lists(cost, min_size=n, max_size=n)), dtype=float)
    x0 = np.array(
        draw(st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n)),
        dtype=float,
    )
    slack = np.array(
        draw(st.lists(st.integers(min_value=1, max_value=5), min_size=m, max_size=m)),
        dtype=float,
    )
    return LinearProgram(
        c=c,
        a_ub=a,
        b_ub=a @ x0 + slack,
        lb=np.zeros(n),
        ub=x0 + 3.0,
    )


@SLOW
@given(data=st.data(), lp=feasible_lps())
def test_warm_resolve_agrees_with_cold(data, lp):
    """Warm from the base basis == cold, on random perturbed problems."""
    cold0 = solve_lp(lp)
    assume(cold0.status is LPStatus.OPTIMAL and cold0.basis is not None)
    sf0 = lp.to_standard_form()
    state = WarmStartState.from_result(sf0, cold0)

    kind = data.draw(st.sampled_from(["rhs", "obj", "bound"]), label="kind")
    b_ub = np.array(lp.b_ub, dtype=float)
    c = np.array(lp.c, dtype=float)
    ub = np.array(lp.ub, dtype=float)
    m, n = b_ub.shape[0], c.shape[0]
    if kind == "rhs":
        delta = np.array(
            data.draw(
                st.lists(coeff, min_size=m, max_size=m), label="delta_b"
            ),
            dtype=float,
        )
        b_ub = b_ub + delta
    elif kind == "obj":
        delta = np.array(
            data.draw(
                st.lists(coeff, min_size=n, max_size=n), label="delta_c"
            ),
            dtype=float,
        )
        c = c + delta
    else:
        # One tightened upper bound — exactly a branching child's move.
        i = data.draw(st.integers(min_value=0, max_value=n - 1), label="var")
        ub[i] = max(0.0, ub[i] - 1.0)

    perturbed = LinearProgram(c=c, a_ub=lp.a_ub, b_ub=b_ub, lb=lp.lb, ub=ub)
    cold = solve_lp(perturbed)
    sf = perturbed.to_standard_form()
    assume(sf.a.shape == sf0.a.shape)

    outcome = warm_resolve(sf, state)
    if outcome is None:
        return  # unusable warm state: the caller cold-solves, no claim made
    res = outcome.result
    if outcome.audit_failed:
        # An audited-out OPTIMAL answer is discarded, never served.
        assert res.status is LPStatus.OPTIMAL
        return
    if res.status not in _TERMINAL or cold.status not in _TERMINAL:
        return  # inconclusive on either side: no claim to compare
    assert res.status is cold.status, (res.status, cold.status)
    if res.status is LPStatus.OPTIMAL:
        scale = 1.0 + max(abs(res.objective), abs(cold.objective))
        assert abs(res.objective - cold.objective) <= 1e-7 * scale
        assert audit_warm_lp(sf, res)


@SLOW
@given(data=st.data(), lp=feasible_lps())
def test_inrange_rhs_move_matches_full_resolve(data, lp):
    """Inside the rhs ranges, the dual prediction == a full re-solve."""
    cold = solve_lp(lp)
    assume(
        cold.status is LPStatus.OPTIMAL
        and cold.basis is not None
        and cold.duals is not None
    )
    sf = lp.to_standard_form()
    report = analyze(sf, cold)

    fractions = data.draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0),
            min_size=sf.m,
            max_size=sf.m,
        ),
        label="fractions",
    )
    delta = np.zeros(sf.m)
    usage = 0.0
    for i, (lo, hi) in enumerate(report.rhs_ranges):
        # Stay strictly inside the range (and on a bounded grid): half
        # the clipped interval, signed by the drawn fraction.
        lo = max(lo, -2.0)
        hi = min(hi, 2.0)
        delta[i] = 0.5 * (lo + fractions[i] * (hi - lo))
        # One-at-a-time ranges only bound *joint* moves via the 100%
        # rule: the summed fractions of each row's allowance must stay
        # below 1 or the basis may leave its feasibility cone.
        if delta[i] > 0:
            usage += delta[i] / hi
        elif delta[i] < 0:
            usage += delta[i] / lo
    if usage > 0.9:
        delta *= 0.9 / usage
    sf2 = dataclasses.replace(sf, b=sf.b + delta)
    res2 = solve_warm_or_cold(sf2, None).result
    assume(res2.status is LPStatus.OPTIMAL)

    predicted = cold.objective + float(cold.duals @ delta)
    scale = 1.0 + max(abs(predicted), abs(res2.objective))
    assert abs(predicted - res2.objective) <= 1e-6 * scale
