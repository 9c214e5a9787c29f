"""Restarted PDHG unit tests: KKT termination, statuses, warm starts."""

import numpy as np
import pytest

from repro.check import certify_first_order_lp
from repro.lp.pdhg import PDHGOptions, _lockstep_pdhg, saddle_from_lp, solve_lp_pdhg
from repro.lp.pdhg_batch import solve_lp_pdhg_batch
from repro.lp.problem import LinearProgram
from repro.lp.result import LPStatus
from repro.lp.warm import solve_lp

EPS = 1e-8


def random_lp(m, n, seed, box=True):
    """A dense LP that is feasible by construction (x = 0 works)."""
    rng = np.random.default_rng(seed)
    return LinearProgram(
        c=rng.standard_normal(n),
        a_ub=rng.standard_normal((m, n)),
        b_ub=rng.random(m) * 4 + 0.5,
        ub=np.full(n, 10.0) if box else None,
    )


class TestOptimal:
    def test_tiny_lp_known_optimum(self):
        # max 3x + 2y s.t. x + y ≤ 4, x ≤ 2, x,y ≥ 0 → (2, 2), value 10.
        lp = LinearProgram(
            c=[3.0, 2.0], a_ub=[[1.0, 1.0], [1.0, 0.0]], b_ub=[4.0, 2.0]
        )
        res = solve_lp_pdhg(lp, PDHGOptions(tolerance=EPS))
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(10.0, abs=1e-6)
        assert res.x == pytest.approx([2.0, 2.0], abs=1e-6)
        assert res.primal_residual <= EPS
        assert res.dual_residual <= EPS
        assert res.gap <= EPS

    @pytest.mark.parametrize("m,n,seed", [(3, 4, 0), (5, 5, 1), (8, 6, 2)])
    def test_matches_simplex(self, m, n, seed):
        lp = random_lp(m, n, seed)
        res = solve_lp_pdhg(lp, PDHGOptions(tolerance=EPS))
        ref = solve_lp(lp)
        assert ref.status is LPStatus.OPTIMAL
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(ref.objective, abs=1e-5)

    def test_equality_rows(self):
        # max x + y s.t. x + y = 1, x − y ≤ 0.5, 0 ≤ x,y ≤ 1.
        lp = LinearProgram(
            c=[1.0, 1.0],
            a_eq=[[1.0, 1.0]],
            b_eq=[1.0],
            a_ub=[[1.0, -1.0]],
            b_ub=[0.5],
            ub=[1.0, 1.0],
        )
        res = solve_lp_pdhg(lp, PDHGOptions(tolerance=EPS))
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(1.0, abs=1e-6)
        assert res.x.sum() == pytest.approx(1.0, abs=1e-6)

    def test_result_certifies_exactly(self):
        lp = random_lp(4, 5, seed=7)
        res = solve_lp_pdhg(lp, PDHGOptions(tolerance=EPS))
        assert res.status is LPStatus.OPTIMAL
        report = certify_first_order_lp(lp, res, eps=EPS)
        assert report.ok, [c.name for c in report.failures]

    def test_box_only_closed_form(self):
        lp = LinearProgram(c=[2.0, -3.0, 0.0], lb=[0.0, -1.0, 0.0], ub=[5.0, 4.0, 1.0])
        res = solve_lp_pdhg(lp)
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(2.0 * 5.0 + 3.0)
        assert res.stats.iterations == 0


class TestStatuses:
    def test_infeasible_rows(self):
        # x ≤ −1 with x ≥ 0 is empty.
        lp = LinearProgram(c=[1.0], a_ub=[[1.0]], b_ub=[-1.0])
        res = solve_lp_pdhg(lp)
        assert res.status is LPStatus.INFEASIBLE

    def test_unbounded(self):
        # max x with only x ≥ −2 binding from below.
        lp = LinearProgram(c=[1.0], a_ub=[[-1.0]], b_ub=[2.0], ub=[np.inf])
        res = solve_lp_pdhg(lp)
        assert res.status is LPStatus.UNBOUNDED

    def test_zero_matrix_bad_rhs_infeasible(self):
        # A zero row with rhs −1 encodes 0 ≤ −1.
        lp = LinearProgram(c=[1.0], a_ub=[[0.0]], b_ub=[-1.0], ub=[1.0])
        res = solve_lp_pdhg(lp)
        assert res.status is LPStatus.INFEASIBLE

    def test_iteration_limit_reports_residuals(self):
        lp = random_lp(6, 8, seed=3)
        res = solve_lp_pdhg(
            lp, PDHGOptions(tolerance=1e-14, max_iterations=40)
        )
        assert res.status is LPStatus.ITERATION_LIMIT
        assert res.stats.iterations == 40
        assert np.isfinite(res.primal_residual)
        assert res.x is not None and res.y is not None


class TestBoundsAndWarmStart:
    def test_upper_bound_dominates_optimum(self):
        for seed in range(4):
            lp = random_lp(4, 5, seed=seed)
            ref = solve_lp(lp)
            # Even a loose solve's padded bound must stay above the optimum.
            res = solve_lp_pdhg(lp, PDHGOptions(tolerance=1e-4))
            assert res.upper_bound() >= ref.objective - 1e-9

    def test_warm_start_reduces_iterations(self):
        lp = random_lp(6, 8, seed=11)
        opts = PDHGOptions(tolerance=EPS)
        cold = solve_lp_pdhg(lp, opts)
        assert cold.status is LPStatus.OPTIMAL
        (warm,), _ = _lockstep_pdhg([saddle_from_lp(lp)], opts, initial=[(cold.x, cold.y)])
        assert warm.status is LPStatus.OPTIMAL
        assert warm.stats.iterations <= cold.stats.iterations
        assert warm.objective == pytest.approx(cold.objective, abs=1e-6)

    def test_restarts_happen_on_nontrivial_solves(self):
        lp = random_lp(8, 8, seed=5)
        res = solve_lp_pdhg(lp, PDHGOptions(tolerance=EPS))
        assert res.status is LPStatus.OPTIMAL
        assert res.stats.restarts >= 1
        assert res.stats.kkt_checks >= 1


class TestStandardForm:
    """A node LP is posed as its own LP, not as its standard form: a
    round of one agrees with the simplex on the standard form."""

    def test_standard_form_matches_simplex(self):
        lp = random_lp(4, 5, seed=9)
        round_ = solve_lp_pdhg_batch([lp], PDHGOptions(tolerance=EPS))
        ref = solve_lp(lp)
        assert round_.statuses == [LPStatus.OPTIMAL]
        assert round_.objectives[0] == pytest.approx(ref.objective, abs=1e-5)
        # The bound a node prunes with is padded above the optimum.
        assert ref.objective - 1e-9 <= round_.bounds[0] <= ref.objective + 1e-5
        assert round_.results[0].gap <= EPS

    def test_recovered_x_feasible(self):
        lp = random_lp(5, 4, seed=13)
        round_ = solve_lp_pdhg_batch([lp], PDHGOptions(tolerance=EPS))
        assert round_.statuses == [LPStatus.OPTIMAL]
        x = round_.x[0]
        assert np.all(lp.a_ub @ x <= lp.b_ub + 1e-6)
        assert np.all(x >= lp.lb - 1e-6)
