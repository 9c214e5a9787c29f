"""Property: a portfolio LP started warm from the root agrees with cold.

Every LP the heuristic portfolio runs is the root relaxation under
tightened bounds, and it re-solves from the root's state through the
audited warm door (:func:`repro.mip.portfolio._solve_lp`).  For any small
random MIP and any random fixing of some of its integers:

- the warm answer and a cold :func:`~repro.lp.simplex.solve_lp` of the
  same LP agree on status, and when optimal on the objective within
  ``feasibility_tol`` (relative to the objective's size);
- the warm dual's own OPTIMAL answer, taken before any audit, passes
  :func:`~repro.lp.warm.audit_warm_lp` — the audit is a net that never
  has to catch anything here.

The budget is the active profile's (CI's ``fuzz-smoke`` runs it under
``--hypothesis-profile=ci``).
"""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.config import DEFAULT_TOLERANCES
from repro.lp.result import LPStatus
from repro.lp.warm import WarmStartState, audit_warm_lp, solve_lp, solve_warm_or_cold, warm_resolve
from repro.mip import portfolio
from repro.problems.random_mip import generate_random_mip


@st.composite
def fixed_mips(draw):
    """A small random MIP, its root answer, and a random fixing box."""
    n = draw(st.integers(min_value=3, max_value=10))
    rows = draw(st.integers(min_value=1, max_value=6))
    problem = generate_random_mip(
        n, rows,
        seed=draw(st.integers(min_value=0, max_value=10_000)),
        integer_fraction=draw(st.sampled_from([0.5, 1.0])),
        bound=4.0,
    )
    lb, ub = problem.lb.copy(), problem.ub.copy()
    for j in np.nonzero(problem.integer)[0]:
        if draw(st.booleans()):
            value = draw(st.integers(min_value=int(lb[j]), max_value=int(ub[j])))
            lb[j] = ub[j] = float(value)
    return problem, lb, ub


@given(case=fixed_mips())
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_warm_portfolio_lp_agrees_with_cold(case):
    problem, lb, ub = case
    relax = problem.relaxation()
    sf_root = relax.to_standard_form()
    root = solve_warm_or_cold(sf_root, None).result
    assume(root.status is LPStatus.OPTIMAL)
    warm = WarmStartState.from_result(sf_root, root)

    fixed = relax.with_bound_vectors(lb, ub)
    sf = sf_root.rebounded(fixed)
    res, _, _ = portfolio._solve_lp(sf, warm, None)
    cold = solve_lp(fixed)
    assert res.status is cold.status
    if cold.status is LPStatus.OPTIMAL:
        tol = DEFAULT_TOLERANCES.feasibility * (1.0 + abs(cold.objective))
        assert abs(res.objective - cold.objective) <= tol
        assert np.all(res.x >= lb - 1e-7) and np.all(res.x <= ub + 1e-7)

    raw = warm_resolve(sf, warm, audit=False)
    if raw is not None and raw.result.status is LPStatus.OPTIMAL:
        assert audit_warm_lp(sf, raw.result)
