"""Satellite: property-based PDHG-vs-simplex agreement (hypothesis).

For *any* generated LP with a planted feasible point, restarted PDHG at
eps=1e-8 must agree with the exact simplex optimum well inside the
differential tolerance; for constructed infeasible/unbounded families
the Farkas-ray detector must return the same status the vertex solver
proves.  Integer-grid data keeps every instance exactly representable.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lp.pdhg import PDHGOptions, solve_lp_pdhg
from repro.lp.problem import LinearProgram
from repro.lp.result import LPStatus
from repro.lp.warm import solve_lp

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

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
    # b = A x0 + positive slack: x0 is strictly feasible, and the box
    # 0 ≤ x ≤ 6 keeps every instance bounded.
    return LinearProgram(c=c, a_ub=a, b_ub=a @ x0 + slack, ub=np.full(n, 6.0))


@st.composite
def infeasible_lps(draw):
    """a·x ≤ b together with a·x ≥ b + gap: empty by construction."""
    n = draw(st.integers(min_value=1, max_value=3))
    a = np.array(
        draw(
            st.lists(coeff, min_size=n, max_size=n).filter(lambda r: any(r))
        ),
        dtype=float,
    )
    b = float(draw(st.integers(min_value=-3, max_value=3)))
    gap = float(draw(st.integers(min_value=1, max_value=4)))
    c = np.array(draw(st.lists(cost, min_size=n, max_size=n)), dtype=float)
    return LinearProgram(
        c=c,
        a_ub=np.vstack([a, -a]),
        b_ub=np.array([b, -(b + gap)]),
        ub=np.full(n, 3.0),
    )


@st.composite
def unbounded_lps(draw):
    """Nonnegative rows written as lower bounds, positive cost: max = ∞."""
    n = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=1, max_value=3))
    a = np.array(
        draw(
            st.lists(
                st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        ),
        dtype=float,
    )
    c = np.array(
        draw(
            st.lists(st.integers(min_value=0, max_value=5), min_size=n, max_size=n)
            .filter(lambda v: any(v))
        ),
        dtype=float,
    )
    b = np.array(
        draw(st.lists(st.integers(min_value=0, max_value=4), min_size=m, max_size=m)),
        dtype=float,
    )
    # −A x ≤ b with A ≥ 0 only bounds x from below; any c_j > 0 escapes.
    return LinearProgram(c=c, a_ub=-a, b_ub=b, ub=np.full(n, np.inf))


@st.composite
def dominant_rank_one_lps(draw):
    """``A = base + U(0,1)``: one singular value ~ base·√(mn) dwarfs the rest.

    The E14 / lp-batch family.  ‖K‖₂ is set by a direction the iterates
    barely move in, which is what the face-sized step has to see
    through; Ruiz scaling cannot remove it.  Positive A and c keep the
    unboxed variant bounded (every x_j is capped by any row).
    """
    base = draw(st.sampled_from([0.1, 1.0, 10.0]))
    m = draw(st.integers(min_value=3, max_value=12))
    n = draw(st.integers(min_value=3, max_value=12))
    boxed = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**16)))
    a = base + rng.random((m, n))
    return LinearProgram(
        c=1.0 + rng.random(n),
        a_ub=a,
        b_ub=a.sum(axis=1) * (0.3 + 0.2 * rng.random(m)),
        ub=np.ones(n) if boxed else None,
    )


class TestPDHGProperties:
    @SLOW
    @given(feasible_lps())
    def test_objective_agrees_with_simplex(self, lp):
        ref = solve_lp(lp)
        assert ref.status is LPStatus.OPTIMAL  # feasible + boxed = solvable
        res = solve_lp_pdhg(lp, PDHGOptions(tolerance=1e-8))
        assert res.status is LPStatus.OPTIMAL
        scale = 1.0 + abs(ref.objective)
        assert abs(res.objective - ref.objective) <= 1e-5 * scale

    @SLOW
    @given(dominant_rank_one_lps())
    def test_dominant_rank_one_family_agrees_with_simplex(self, lp):
        ref = solve_lp(lp)
        assert ref.status is LPStatus.OPTIMAL
        res = solve_lp_pdhg(lp, PDHGOptions(tolerance=1e-8))
        assert res.status is LPStatus.OPTIMAL
        scale = 1.0 + abs(ref.objective)
        assert abs(res.objective - ref.objective) <= 1e-5 * scale

    @SLOW
    @given(infeasible_lps())
    def test_infeasibility_detection_matches(self, lp):
        assert solve_lp(lp).status is LPStatus.INFEASIBLE
        res = solve_lp_pdhg(lp)
        assert res.status is LPStatus.INFEASIBLE

    @SLOW
    @given(unbounded_lps())
    def test_unboundedness_detection_matches(self, lp):
        assert solve_lp(lp).status is LPStatus.UNBOUNDED
        res = solve_lp_pdhg(lp)
        assert res.status is LPStatus.UNBOUNDED
