"""Differential cross-solver tests: agreement on healthy instances,
detection on contrived contradictions."""

import pytest

from repro.check import DifferentialReport, SolverRun, differential_lp, differential_mip
from repro.check.differential import DIFFERENTIAL_RTOL, PDHG_DIFFERENTIAL_EPS
from repro.errors import SolverDisagreement
from repro.lp.problem import LinearProgram
from repro.problems.knapsack import generate_knapsack
from repro.problems.miplib import instance_by_name
from repro.problems.random_mip import generate_random_mip

#: Equality rows (fixed slacks): facility location, generalized and plain
#: assignment, each lane refereed by HiGHS.
EQUALITY_ROWS = ("ufl-4x10", "gap-3x8", "assign-5")


class TestDifferentialLP:
    def test_all_solvers_agree_on_random_relaxations(self):
        lps = [generate_random_mip(6, 4, seed=seed, density=0.8).relaxation() for seed in range(4)]
        for lp in lps + [instance_by_name(name).relaxation() for name in EQUALITY_ROWS]:
            report = differential_lp(lp)
            assert report.ok, report.disagreements
            names = [r.name for r in report.runs]
            assert "simplex" in names and "dual_simplex" in names

    def test_batch_pair_runs_when_lockstep_compatible(self):
        lp = generate_knapsack(10, seed=1).relaxation()
        report = differential_lp(lp)
        assert report.ok
        names = [r.name for r in report.runs]
        assert "batch_simplex[0]" in names and "batch_simplex[1]" in names

    def test_lockstep_bound_flip_path_agrees(self):
        # The lockstep engine keeps x ≤ ub outside its tableau.  This
        # instance walks all three ratio-test outcomes (y flips to its
        # bound, x pivots in, x leaves at its upper bound) and ends at
        # x = (2, 1.5): in standard form x is *basic at* its bound.
        lp = LinearProgram(c=[2.0, 3.0], a_ub=[[1.0, 2.0]], b_ub=[5.0], ub=[2.0, 2.0])
        report = differential_lp(lp)
        assert report.ok, report.disagreements
        batch = [r for r in report.runs if r.name.startswith("batch_simplex[")]
        assert len(batch) == 2
        assert all(r.conclusive and r.objective == pytest.approx(8.5) for r in batch)

    def test_iteration_limit_is_inconclusive_not_flagged(self):
        lp = generate_random_mip(5, 3, seed=1).relaxation()
        report = differential_lp(lp)
        for run in report.runs:
            if run.status == "iteration_limit":
                assert not run.conclusive


class TestDifferentialMIP:
    def test_all_configurations_agree(self):
        problems = [generate_random_mip(6, 4, seed=seed, density=0.7) for seed in range(3)]
        for problem in problems + [instance_by_name(name) for name in EQUALITY_ROWS]:
            report = differential_mip(problem)
            assert report.ok, report.disagreements
            assert len([r for r in report.runs if r.conclusive]) >= 6

    def test_strategy_skip(self):
        problem = generate_random_mip(5, 3, seed=4)
        report = differential_mip(problem, strategies=())
        assert report.ok
        assert not any(r.name.startswith("strategy/") for r in report.runs)


class TestHighsLane:
    """HiGHS referees both lanes: a solver none of the others shares code with."""

    def test_highs_agrees_on_an_lp_and_a_mip(self):
        problems = [generate_knapsack(10, seed=3, correlation="strong")]
        for problem in problems + [instance_by_name(name) for name in EQUALITY_ROWS]:
            for report in (
                differential_lp(problem.relaxation()),
                differential_mip(problem, strategies=()),
            ):
                assert report.ok, report.disagreements
                (highs,) = [r for r in report.runs if r.name == "highs"]
                assert highs.conclusive and highs.status == "optimal"

    def test_highs_alone_would_be_flagged(self, monkeypatch):
        """A lane that agrees with itself but not with HiGHS is caught."""
        from repro.check import differential

        real = differential._highs_run

        def off_by_one(problem, integrality):
            run = real(problem, integrality)
            run.objective += 1.0
            return run

        monkeypatch.setattr(differential, "_highs_run", off_by_one)
        report = differential_mip(generate_knapsack(8, seed=1), strategies=())
        assert not report.ok
        assert {d.kind for d in report.disagreements} == {"objective"}
        assert all("highs" in (d.left, d.right) for d in report.disagreements)

    def test_unbounded_and_infeasible_verdicts(self):
        import numpy as np

        from repro.check.differential import _highs_run

        # x₀ = x₁ → ∞ is a ray; x₀ + x₁ ≤ −1 has no point in x ≥ 0.
        ray = LinearProgram(c=[0.0, 1.0], a_ub=[[1.0, -1.0]], b_ub=[1.0])
        empty = LinearProgram(c=[1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[-1.0])
        for lp, status in ((ray, "unbounded"), (empty, "infeasible")):
            run = _highs_run(lp, np.zeros(lp.n))
            assert run.status == status and run.conclusive


class TestPairComparison:
    def _report(self, runs):
        report = DifferentialReport(problem_name="contrived", runs=runs)
        report._compare_pairs()
        return report

    def test_status_contradiction_flagged(self):
        report = self._report(
            [
                SolverRun(name="a", status="optimal", objective=1.0),
                SolverRun(name="b", status="infeasible", objective=float("nan")),
            ]
        )
        assert not report.ok
        assert report.disagreements[0].kind == "status"

    def test_objective_gap_flagged(self):
        report = self._report(
            [
                SolverRun(name="a", status="optimal", objective=10.0),
                SolverRun(name="b", status="optimal", objective=10.5),
            ]
        )
        assert not report.ok
        assert report.disagreements[0].kind == "objective"
        with pytest.raises(SolverDisagreement):
            report.raise_for_failures()

    def test_inconclusive_runs_never_flag(self):
        report = self._report(
            [
                SolverRun(name="a", status="optimal", objective=10.0),
                SolverRun(
                    name="b",
                    status="iteration_limit",
                    objective=0.0,
                    conclusive=False,
                ),
            ]
        )
        assert report.ok

    def test_tolerance_respected(self):
        report = self._report(
            [
                SolverRun(name="a", status="optimal", objective=10.0),
                SolverRun(name="b", status="optimal", objective=10.0 + 1e-9),
            ]
        )
        assert report.ok


class TestDifferentialPDHG:
    def test_pdhg_lane_runs_and_agrees(self):
        lp = generate_random_mip(6, 4, seed=2, density=0.8).relaxation()
        report = differential_lp(lp)
        assert report.ok, report.disagreements
        pdhg = [r for r in report.runs if r.name == "pdhg"]
        assert len(pdhg) == 1
        assert pdhg[0].conclusive
        assert "eps=" in pdhg[0].note

    def test_pdhg_batch_member_lane_runs_and_agrees(self):
        # The same LP as the middle member of a k=3 batch: its siblings
        # (rhs halved / doubled) freeze at other sweeps around it.
        lp = generate_random_mip(6, 4, seed=2, density=0.8).relaxation()
        report = differential_lp(lp)
        assert report.ok, report.disagreements
        (member,) = [r for r in report.runs if r.name == "pdhg_batch[1]"]
        (single,) = [r for r in report.runs if r.name == "pdhg"]
        assert member.conclusive and member.status == single.status
        assert "member 1 of 3" in member.note

    def test_tolerance_policy_separates_scales(self):
        # The PDHG solve tolerance must sit well inside the comparison
        # tolerance, or first-order slack would trip false disagreements.
        assert PDHG_DIFFERENTIAL_EPS <= DIFFERENTIAL_RTOL / 10

    def test_mip_configs_include_pdhg_nodes(self):
        problem = generate_random_mip(6, 4, seed=4)
        report = differential_mip(problem)
        assert report.ok, report.disagreements
        names = [r.name for r in report.runs]
        assert "bb/pdhg_nodes" in names
        assert "bb/pdhg_round4" in names

