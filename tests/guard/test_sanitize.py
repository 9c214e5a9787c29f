"""Sanitizer semantics: policy table, verdicts, and the two properties
that make REPAIR safe to run silently — idempotence and exact optimum
preservation."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SanitizeError
from repro.guard.sanitize import SanitizePolicy, sanitize_problem
from repro.lp.problem import LinearProgram
from repro.lp.result import LPStatus
from repro.lp.warm import solve_lp
from repro.mip.problem import MIPProblem

PROP = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def dirty_feasible_lp(seed: int, n: int, m: int) -> LinearProgram:
    """A bounded feasible LP with injected repairable pathologies.

    The clean core is ``max c x  s.t.  A x <= b, 0 <= x <= 2`` with
    ``b = A @ 1 + margin`` (so x = 1 is strictly feasible).  On top we
    stack a duplicate of row 0 with a looser rhs and an all-zero row
    with a satisfiable rhs — both exactly redundant, so the optimum of
    the dirty instance equals the optimum of the repaired one.
    """
    rng = np.random.default_rng(seed)
    c = rng.uniform(0.5, 2.0, n)
    a = rng.uniform(0.1, 1.0, (m, n))
    b = a @ np.ones(n) + rng.uniform(0.5, 1.0, m)
    rows = np.vstack([a, a[0], np.zeros(n)])
    rhs = np.concatenate([b, [b[0] + 1.0], [0.5]])
    return LinearProgram(c=c, a_ub=rows, b_ub=rhs, lb=np.zeros(n), ub=np.full(n, 2.0))


class TestProperties:
    @PROP
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 8),
        m=st.integers(1, 6),
    )
    def test_repair_is_idempotent(self, seed, n, m):
        report = sanitize_problem(dirty_feasible_lp(seed, n, m))
        assert report.repaired  # the injected junk was found
        again = sanitize_problem(report.problem)
        assert again.clean
        assert again.problem is report.problem  # no rewrite second time

    @PROP
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 8),
        m=st.integers(1, 6),
    )
    def test_repair_preserves_optimum(self, seed, n, m):
        dirty = dirty_feasible_lp(seed, n, m)
        report = sanitize_problem(dirty)
        before = solve_lp(dirty)
        after = solve_lp(report.problem)
        assert before.status is LPStatus.OPTIMAL
        assert after.status is LPStatus.OPTIMAL
        assert after.objective == pytest.approx(before.objective, rel=1e-9)


class TestPolicies:
    def nan_lp(self):
        return LinearProgram(c=[float("nan"), 1.0], ub=[1.0, 1.0])

    def test_warn_never_raises_never_rewrites(self):
        lp = self.nan_lp()
        report = sanitize_problem(lp, policy=SanitizePolicy.WARN)
        assert report.problem is lp
        assert report.fatal

    def test_repair_rejects_fatal(self):
        with pytest.raises(SanitizeError):
            sanitize_problem(self.nan_lp())

    def test_reject_rejects_everything(self):
        lp = dirty_feasible_lp(0, 3, 2)
        with pytest.raises(SanitizeError):
            sanitize_problem(lp, policy=SanitizePolicy.REJECT)

    def test_clean_problem_passes_untouched(self):
        lp = LinearProgram(c=[1.0, 2.0], a_ub=[[1.0, 1.0]], b_ub=[1.0], ub=[1.0, 1.0])
        for policy in SanitizePolicy:
            report = sanitize_problem(lp, policy=policy)
            assert report.clean
            assert report.problem is lp


class TestVerdicts:
    def test_empty_row_with_impossible_rhs(self):
        lp = LinearProgram(
            c=[1.0], a_ub=[[0.0]], b_ub=[-1.0], ub=[1.0]
        )  # 0*x <= -1
        report = sanitize_problem(lp)
        assert report.verdict == "infeasible"

    def test_conflicting_duplicate_equalities(self):
        lp = LinearProgram(
            c=[1.0, 1.0],
            a_eq=[[1.0, 1.0], [1.0, 1.0]],
            b_eq=[1.0, 2.0],
            ub=[5.0, 5.0],
        )
        report = sanitize_problem(lp)
        assert report.verdict == "infeasible"

    def test_feasible_instance_has_no_verdict(self):
        report = sanitize_problem(dirty_feasible_lp(1, 4, 3))
        assert report.verdict is None


class TestRepairs:
    def test_dynamic_range_rescaled(self):
        lp = LinearProgram(
            c=[1.0, 1.0],
            a_ub=[[1e-6, 1e-6], [1e7, 1e7]],
            b_ub=[1.0, 1e7],
            ub=[10.0, 10.0],
        )
        report = sanitize_problem(lp)
        assert "dynamic_range" in report.repaired
        mags = np.max(np.abs(report.problem.a_ub), axis=1)
        np.testing.assert_allclose(mags, 1.0)
        # Rescaling exposed the rows as duplicates; the fixpoint pass
        # then collapsed them to the tighter constraint (x1+x2 <= 1).
        assert "duplicate_row" in report.repaired
        assert report.problem.a_ub.shape[0] == 1
        assert report.problem.b_ub[0] == pytest.approx(1.0)

    def test_duplicate_ub_rows_keep_tighter_rhs(self):
        lp = LinearProgram(
            c=[1.0],
            a_ub=[[1.0], [1.0]],
            b_ub=[5.0, 3.0],
            ub=[10.0],
        )
        report = sanitize_problem(lp)
        assert "duplicate_row" in report.repaired
        assert report.problem.a_ub.shape[0] == 1
        assert report.problem.b_ub[0] == 3.0

    def test_mip_repair_carries_integer_mask(self):
        base = dirty_feasible_lp(2, 4, 3)
        mip = MIPProblem(
            c=base.c,
            integer=np.array([True, False, True, False]),
            a_ub=base.a_ub,
            b_ub=base.b_ub,
            lb=base.lb,
            ub=base.ub,
            name="dirty-mip",
        )
        report = sanitize_problem(mip)
        assert report.repaired
        assert isinstance(report.problem, MIPProblem)
        assert report.problem.name == "dirty-mip"
        np.testing.assert_array_equal(report.problem.integer, mip.integer)

    def test_dispatch_on_problem_type(self):
        lp = dirty_feasible_lp(3, 3, 2)
        assert isinstance(sanitize_problem(lp).problem, LinearProgram)
