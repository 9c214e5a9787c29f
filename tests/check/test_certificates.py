"""Exact-arithmetic certificate tests: honest answers pass, lies fail."""

import numpy as np
import pytest

from repro.check import certify_lp_result, certify_mip_result, certify_mip_solution
from repro.errors import CertificateViolation
from repro.lp.problem import LinearProgram
from repro.lp.warm import solve_lp
from repro.mip.problem import MIPProblem
from repro.mip.solver import BranchAndBoundSolver, SolverOptions
from repro.problems.knapsack import generate_knapsack, knapsack_dp_optimal
from repro.problems.random_mip import generate_random_mip


def _solved(problem):
    result = BranchAndBoundSolver(problem, SolverOptions()).solve()
    assert result.ok
    return result


class TestMIPCertificates:
    def test_honest_solutions_certify(self):
        for seed in range(6):
            problem = generate_random_mip(6, 4, seed=seed, density=0.8)
            result = _solved(problem)
            report = certify_mip_result(problem, result)
            assert report.ok, [c.name for c in report.failures]

    def test_knapsack_against_dp_reference(self):
        problem = generate_knapsack(14, seed=2)
        result = _solved(problem)
        expected, _ = knapsack_dp_optimal(problem)
        assert result.objective == pytest.approx(expected)
        assert certify_mip_result(problem, result).ok

    def test_perturbed_objective_is_caught(self):
        problem = generate_random_mip(6, 4, seed=1)
        result = _solved(problem)
        result.objective += 1e-3
        report = certify_mip_result(problem, result)
        assert not report.ok
        assert any(c.name == "objective" for c in report.failures)

    def test_infeasible_point_is_caught(self):
        problem = generate_random_mip(6, 4, seed=2)
        result = _solved(problem)
        x_bad = result.x.copy()
        x_bad[0] = problem.ub[0] + 1.0  # leaves the bound box
        report = certify_mip_solution(problem, x_bad)
        assert not report.ok
        assert any(c.name in ("bounds", "rows_ub") for c in report.failures)

    def test_fractional_integer_is_caught(self):
        problem = generate_random_mip(6, 4, seed=3)
        result = _solved(problem)
        j = int(np.nonzero(problem.integer)[0][0])
        x_bad = result.x.copy()
        x_bad[j] += 0.5 if x_bad[j] + 0.5 <= problem.ub[j] else -0.5
        report = certify_mip_solution(problem, x_bad)
        assert not report.ok
        assert any(c.name == "integrality" for c in report.failures)

    def test_dual_bound_below_objective_is_caught(self):
        problem = generate_random_mip(6, 4, seed=4)
        result = _solved(problem)
        report = certify_mip_solution(
            problem,
            result.x,
            objective=result.objective,
            best_bound=result.objective - 1.0,  # claims the optimum is impossible
        )
        assert not report.ok
        assert any(c.name == "dual_bound" for c in report.failures)

    def test_optimal_without_incumbent_is_a_violation(self):
        problem = generate_random_mip(4, 3, seed=5)
        result = _solved(problem)
        result.x = None
        report = certify_mip_result(problem, result)
        assert not report.ok

    def test_raise_for_failures(self):
        problem = generate_random_mip(5, 3, seed=6)
        result = _solved(problem)
        result.objective += 1.0
        report = certify_mip_result(problem, result)
        with pytest.raises(CertificateViolation) as info:
            report.raise_for_failures()
        assert info.value.check == "objective"
        certify_mip_result(problem, _solved(problem)).raise_for_failures()  # no-op

    def test_exactness_no_false_positive_at_scale(self):
        # Large coefficients: float residuals grow, the relative scaling
        # must keep honest answers certifiable.
        problem = MIPProblem(
            c=np.array([1e8, 1.0]),
            integer=np.array([True, False]),
            a_ub=np.array([[1e8, 1.0]]),
            b_ub=np.array([3e8]),
            lb=np.zeros(2),
            ub=np.array([5.0, 10.0]),
        )
        result = _solved(problem)
        assert certify_mip_result(problem, result).ok


class TestLPCertificates:
    def test_simplex_result_gets_full_duality_certificate(self):
        problem = generate_random_mip(6, 4, seed=7)
        lp = problem.relaxation()
        result = solve_lp(lp)
        report = certify_lp_result(lp, result)
        assert report.ok
        names = {c.name for c in report.checks}
        assert "dual_feasibility" in names and "strong_duality" in names

    def test_lp_objective_lie_is_caught(self):
        lp = generate_random_mip(6, 4, seed=8).relaxation()
        result = solve_lp(lp)
        result.objective += 1e-2
        report = certify_lp_result(lp, result)
        assert not report.ok

    def test_box_absorbs_positive_reduced_costs(self):
        lp = generate_knapsack(12, seed=3).relaxation()
        result = solve_lp(lp)
        assert result.at_upper.any()
        assert certify_lp_result(lp, result).ok

    def test_wrongly_shaped_claim_fails_instead_of_skipping_the_proof(self):
        # max x1 + x2, x1 + x2 <= 4, x <= 3: the origin is feasible and
        # its objective is consistent, but it is not optimal.  A dual
        # vector of the wrong length used to skip the proof silently.
        lp = LinearProgram(c=[1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[4.0], ub=[3.0, 3.0])
        result = solve_lp(lp)
        result.x, result.objective = np.zeros(2), 0.0
        result.duals = np.zeros(2)
        report = certify_lp_result(lp, result)
        assert [c.name for c in report.failures] == ["shape"]
        # With the right shape the proof runs and refutes the claim.
        result.duals = np.zeros(1)
        result.x_standard = np.zeros(3)
        report = certify_lp_result(lp, result)
        assert [c.name for c in report.failures] == ["strong_duality"]

    def test_non_optimal_statuses_are_vacuously_ok(self):
        lp = generate_random_mip(4, 2, seed=9).relaxation()
        result = solve_lp(lp)
        result.x = None
        from repro.lp.result import LPStatus

        result.status = LPStatus.ITERATION_LIMIT
        assert certify_lp_result(lp, result).ok
