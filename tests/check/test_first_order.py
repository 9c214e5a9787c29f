"""First-order certificate audits: honest eps-KKT points pass, lies fail."""

import numpy as np
import pytest

from repro.check import (
    certify_first_order_lp,
    certify_lp_result,
    certify_mip_solution,
)
from repro.lp.interior_point import interior_point_solve
from repro.lp.pdhg import PDHGOptions, solve_lp_pdhg
from repro.lp.problem import LinearProgram
from repro.lp.result import LPStatus
from repro.mip.problem import MIPProblem

EPS = 1e-8


def random_lp(m, n, seed):
    rng = np.random.default_rng(seed)
    return LinearProgram(
        c=rng.standard_normal(n),
        a_ub=rng.standard_normal((m, n)),
        b_ub=rng.random(m) * 4 + 0.5,
        ub=np.full(n, 10.0),
    )


def solved(lp, eps=EPS):
    res = solve_lp_pdhg(lp, PDHGOptions(tolerance=eps))
    assert res.status is LPStatus.OPTIMAL
    return res


class TestFirstOrderCertificate:
    def test_honest_solves_certify(self):
        for seed in range(5):
            lp = random_lp(4, 5, seed=seed)
            report = certify_first_order_lp(lp, solved(lp), eps=EPS)
            assert report.ok, [c.name for c in report.failures]

    def test_equality_rows_certify(self):
        lp = LinearProgram(
            c=[1.0, 2.0, -1.0],
            a_eq=[[1.0, 1.0, 1.0]],
            b_eq=[2.0],
            a_ub=[[1.0, -1.0, 0.0]],
            b_ub=[1.0],
            ub=[2.0, 2.0, 2.0],
        )
        report = certify_first_order_lp(lp, solved(lp), eps=EPS)
        assert report.ok, [c.name for c in report.failures]

    def test_corrupted_primal_is_caught(self):
        lp = random_lp(4, 5, seed=9)
        res = solved(lp)
        res.x = res.x + 1e-3  # leaves the eps-KKT neighborhood
        report = certify_first_order_lp(lp, res, eps=EPS)
        assert not report.ok

    def test_corrupted_objective_is_caught(self):
        lp = random_lp(4, 5, seed=10)
        res = solved(lp)
        res.objective += 1e-2
        report = certify_first_order_lp(lp, res, eps=EPS)
        assert not report.ok
        assert any(c.name == "objective" for c in report.failures)

    def test_negative_inequality_dual_is_caught(self):
        lp = random_lp(4, 5, seed=11)
        res = solved(lp)
        res.y = res.y.copy()
        res.y[0] = -0.5  # inequality duals must stay in the cone
        report = certify_first_order_lp(lp, res, eps=EPS)
        assert not report.ok

    def test_optimal_without_duals_is_caught(self):
        lp = random_lp(3, 3, seed=12)
        res = solved(lp)
        res.y = None
        report = certify_first_order_lp(lp, res, eps=EPS)
        assert not report.ok
        assert any(c.name == "status" for c in report.failures)

    def test_shape_mismatched_duals_are_caught(self):
        lp = random_lp(3, 3, seed=13)
        res = solved(lp)
        res.y = np.zeros(5)
        report = certify_first_order_lp(lp, res, eps=EPS)
        assert not report.ok
        assert any(c.name == "shape" for c in report.failures)

    def test_non_optimal_status_is_vacuously_ok(self):
        lp = LinearProgram(c=[1.0], a_ub=[[1.0]], b_ub=[-1.0])
        res = solve_lp_pdhg(lp)
        assert res.status is LPStatus.INFEASIBLE
        report = certify_first_order_lp(lp, res)
        assert report.ok

    def test_wider_eps_accepts_looser_points(self):
        # The audit is parameterized by the solve's declared accuracy.
        # (Seed 15 stops at residual 5.5e-5.  Seed 14, used until the step
        # was sized by the face, now ends on a 1×1 face where 40 sweeps at
        # 0.9/|k| are exact to 1e-16 — nothing loose left to audit.)
        lp = random_lp(5, 5, seed=15)
        loose = solve_lp_pdhg(lp, PDHGOptions(tolerance=1e-4))
        assert loose.status is LPStatus.OPTIMAL
        assert certify_first_order_lp(lp, loose, eps=1e-4).ok
        # The same point audited at vertex-grade accuracy fails.
        assert not certify_first_order_lp(lp, loose, eps=1e-12).ok


class TestExplicitTolerances:
    def test_lp_result_with_first_order_tolerances(self):
        # An interior-point answer is an inexact LPResult: it passes the
        # duality certificate at an explicit tolerance.
        lp = random_lp(4, 5, seed=15)
        sf = lp.to_standard_form()
        out = interior_point_solve(sf)
        assert out.status is LPStatus.OPTIMAL
        out.x = sf.recover_x(out.x_standard)
        report = certify_lp_result(
            lp, out, feasibility_tol=1e-6, optimality_tol=1e-6
        )
        assert report.ok, [c.name for c in report.failures]

    def test_mip_solution_feasibility_tol_both_ways(self):
        problem = MIPProblem(
            c=[1.0, 1.0],
            integer=np.array([True, False]),
            a_ub=[[1.0, 1.0]],
            b_ub=[1.5],
            ub=[1.0, 1.0],
        )
        x = np.array([1.0, 0.5 + 1e-5])  # violates the row by exactly 1e-5
        assert certify_mip_solution(problem, x, feasibility_tol=1e-4).ok
        report = certify_mip_solution(problem, x, feasibility_tol=1e-6)
        assert not report.ok
        assert any(c.name == "rows_ub" for c in report.failures)

    def test_mip_solution_integrality_tol_both_ways(self):
        problem = MIPProblem(
            c=[1.0, 1.0],
            integer=np.array([True, False]),
            a_ub=[[1.0, 1.0]],
            b_ub=[1.5],
            ub=[1.0, 1.0],
        )
        x = np.array([1.0 - 1e-5, 0.5])
        assert certify_mip_solution(
            problem, x, feasibility_tol=1e-4, integrality_tol=1e-4
        ).ok
        report = certify_mip_solution(
            problem, x, feasibility_tol=1e-4, integrality_tol=1e-7
        )
        assert not report.ok
        assert any(c.name == "integrality" for c in report.failures)
