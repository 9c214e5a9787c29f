"""Guard features at the ``repro.api.solve`` front door."""

import numpy as np
import pytest

from repro.api import SolveOptions, solve
from repro.errors import ReproError, SanitizeError
from repro.lp.problem import LinearProgram
from repro.device.gpu import Device
from repro.device.spec import V100
from repro.mip.batch_solver import BatchedNodeSolver, BatchedRoundEngine
from repro.mip.solver import SolverOptions
from repro.problems.knapsack import generate_knapsack, knapsack_dp_optimal


class TestDeadline:
    def test_deadline_returns_anytime_report(self):
        problem = generate_knapsack(20, seed=11, correlation="strong")
        report = solve(problem, SolveOptions(deadline=0.05))
        assert report.status == "time_limit"
        assert not report.ok
        guard = report.metrics["guard"]
        assert guard["counters"]["deadline"] == 1

    def test_deadline_bound_is_sound(self):
        problem = generate_knapsack(20, seed=11, correlation="strong")
        optimum, _ = knapsack_dp_optimal(problem)
        report = solve(problem, SolveOptions(deadline=0.05))
        assert report.best_bound >= optimum - 1e-9
        if np.isfinite(report.objective):
            assert report.objective <= optimum + 1e-9

    def test_generous_deadline_solves_clean(self):
        problem = generate_knapsack(10, seed=2)
        optimum, _ = knapsack_dp_optimal(problem)
        report = solve(problem, SolveOptions(deadline=300.0))
        assert report.ok
        assert report.objective == pytest.approx(optimum)
        # No deadline was hit, so no guard metrics are attached.
        assert "guard" not in report.metrics


class TestSanitize:
    def dirty_lp(self):
        # One redundant all-zero row; optimum x = (1, 1), objective 3.
        return LinearProgram(
            c=[1.0, 2.0],
            a_ub=[[1.0, 1.0], [0.0, 0.0]],
            b_ub=[2.0, 0.5],
            ub=[1.0, 1.0],
        )

    def test_repair_then_solve(self):
        report = solve(self.dirty_lp(), SolveOptions(sanitize="repair"))
        assert report.ok
        assert report.objective == pytest.approx(3.0)
        assert "empty_row" in report.metrics["sanitize"]["repaired"]

    def test_proven_infeasible_short_circuits(self):
        lp = LinearProgram(c=[1.0], a_ub=[[0.0]], b_ub=[-1.0], ub=[1.0])
        report = solve(lp, SolveOptions(sanitize="repair"))
        assert report.status == "infeasible"
        assert report.x is None
        assert report.metrics["sanitize"]["verdict"] == "infeasible"

    def test_mode_contract_precedes_sanitation(self):
        """A non-exact mode on a plain LP is refused before the sanitizer
        can answer INFEASIBLE on its own."""
        lp = LinearProgram(c=[1.0], a_ub=[[0.0]], b_ub=[-1.0], ub=[1.0])
        with pytest.raises(ReproError, match="applies to MIPs only"):
            solve(lp, SolveOptions(mode="heuristic_only", sanitize="repair"))

    def test_proven_infeasible_mip_keeps_its_mode(self):
        from repro.mip.problem import MIPProblem

        problem = MIPProblem(
            c=np.array([3.0, 2.0]),
            integer=np.array([True, True]),
            a_ub=np.array([[0.0, 0.0], [1.0, 1.0]]),
            b_ub=np.array([-1.0, 4.0]),
            ub=np.array([4.0, 4.0]),
        )
        report = solve(
            problem, SolveOptions(mode="heuristic_only", sanitize="repair")
        )
        assert report.status == "infeasible"
        assert report.mode == "heuristic_only"

    def test_reject_policy_raises(self):
        with pytest.raises(SanitizeError):
            solve(self.dirty_lp(), SolveOptions(sanitize="reject"))

    def test_warn_policy_reports_without_rewriting(self):
        report = solve(self.dirty_lp(), SolveOptions(sanitize="warn"))
        assert report.ok
        assert report.metrics["sanitize"]["repaired"] == []
        assert not report.metrics["sanitize"]["clean"]

    def test_clean_problem_sanitizes_silently(self):
        problem = generate_knapsack(8, seed=1)
        report = solve(problem, SolveOptions(sanitize="repair"))
        assert report.ok
        assert report.metrics["sanitize"]["clean"]


class TestLPLadder:
    """``api.solve``'s LP path climbs the ladder on an LP the door could
    not finish, as the tree's node loop does."""

    @pytest.mark.parametrize("status", ["iteration_limit", "numerical"])
    def test_unfinished_lp_climbs_the_ladder(self, monkeypatch, status):
        import repro.api
        from repro.lp.result import LPResult, LPStatus
        from repro.lp.warm import WarmSolveOutcome

        # Only the first attempt fails: the rescale rung's own solve runs.
        monkeypatch.setattr(
            repro.api,
            "solve_warm_or_cold",
            lambda sf, warm: WarmSolveOutcome(LPResult(status=LPStatus(status), iterations=7)),
        )
        lp = LinearProgram(c=[1.0, 2.0], a_ub=[[1.0, 1.0]], b_ub=[2.0], ub=[1.0, 1.0])
        report = solve(lp)
        assert report.ok and report.objective == pytest.approx(3.0)
        assert report.metrics["escalation"] == ["rescale"]

    def test_every_attempt_is_counted_and_priced(self, monkeypatch):
        # The door gives up after 500 iterations; the rescale rung then
        # answers.  Both attempts ran, so both count and both are charged.
        import repro.api
        from repro.device import kernels as K
        from repro.guard.escalate import escalate_lp
        from repro.lp.result import LPResult, LPStatus
        from repro.lp.simplex import NULL_HOOK
        from repro.lp.warm import WarmSolveOutcome

        failed = LPResult(status=LPStatus.ITERATION_LIMIT, iterations=500)
        monkeypatch.setattr(
            repro.api, "solve_warm_or_cold", lambda sf, warm: WarmSolveOutcome(failed)
        )
        lp = LinearProgram(c=[1.0, 2.0], a_ub=[[1.0, 1.0]], b_ub=[2.0], ub=[1.0, 1.0])
        report = solve(lp, SolveOptions(device=Device(V100)))
        assert report.ok and report.metrics["escalation"] == ["rescale"]
        assert report.lp_iterations >= 500
        sf = lp.to_standard_form()
        rungs = escalate_lp(sf, NULL_HOOK, first=failed).iterations
        assert report.lp_iterations == 500 + sum(rungs)
        # Priced as one small-LP stream per attempt.
        reference = Device(V100)
        for iterations in [500] + rungs:
            K.launch_lp_stream(reference, sf.m, sf.n, iterations)
        assert report.makespan_seconds == pytest.approx(reference.clock.now)


class TestNumericalDegradation:
    """A post-ladder NUMERICAL surrender with no incumbent walks the
    strategy degradation chain instead of stopping empty-handed."""

    def _break_cpu_engine(self, monkeypatch):
        from repro.lp.result import LPResult, LPStatus
        from repro.lp.warm import WarmSolveOutcome
        from repro.mip.solver import BranchAndBoundSolver
        from repro.strategies.engine import CpuOrchestratedEngine

        monkeypatch.setattr(
            CpuOrchestratedEngine,
            "solve_relaxation",
            lambda self, sf, warm=None, probe=False: WarmSolveOutcome(
                LPResult(status=LPStatus.NUMERICAL)
            ),
        )
        # Identity ladder: the breakage survives escalation.
        monkeypatch.setattr(
            BranchAndBoundSolver,
            "_escalate_node",
            lambda self, sf, first: first,
        )

    def test_solver_raises_structured_error(self, monkeypatch):
        from repro.errors import NumericalInstabilityError
        from repro.mip.solver import BranchAndBoundSolver
        from repro.strategies.engine import CpuOrchestratedEngine

        self._break_cpu_engine(monkeypatch)
        problem = generate_knapsack(8, seed=1)
        solver = BranchAndBoundSolver(problem, engine=CpuOrchestratedEngine())
        with pytest.raises(NumericalInstabilityError) as exc:
            solver.solve()
        assert exc.value.signal == "numerical"

    def test_api_degrades_to_fallback_strategy(self, monkeypatch):
        from repro.problems.knapsack import knapsack_dp_optimal

        self._break_cpu_engine(monkeypatch)
        problem = generate_knapsack(8, seed=1)
        optimum, _ = knapsack_dp_optimal(problem)
        report = solve(problem, SolveOptions(strategy="cpu_orchestrated"))
        assert report.ok
        assert report.objective == pytest.approx(optimum)
        degradation = report.metrics["degradation"]
        assert degradation["requested"] == "cpu_orchestrated"
        assert degradation["used"] == "direct"


class TestOptionsValidation:
    def test_solve_options(self):
        with pytest.raises(ReproError):
            SolveOptions(deadline=0.0)
        with pytest.raises(ReproError):
            SolveOptions(deadline=-1.0)
        for bad in ("5", True, float("nan")):
            with pytest.raises(ReproError):
                SolveOptions(deadline=bad)
        with pytest.raises(ReproError):
            SolveOptions(mip_node_batch=-1)
        with pytest.raises(ReproError):
            SolveOptions(sanitize="fix-it-all")

    def test_solver_options(self):
        with pytest.raises(ReproError):
            SolverOptions(node_limit=0)
        with pytest.raises(ReproError):
            SolverOptions(mip_gap=-0.1)
        with pytest.raises(ReproError):
            SolverOptions(cut_rounds=-1)
        with pytest.raises(ReproError):
            SolverOptions(solution_pool_size=0)
        with pytest.raises(ReproError):
            SolverOptions(checkpoint_every=-1)

    def test_unknown_rule_names(self):
        from repro.lp.simplex import SimplexOptions

        with pytest.raises(ReproError, match="branching"):
            SolverOptions(branching="nope")
        with pytest.raises(ReproError, match="node_selection"):
            SolverOptions(node_selection="nope")
        with pytest.raises(ReproError, match="pricing"):
            SimplexOptions(pricing="nope")

    def test_batched_solver_options(self):
        with pytest.raises(ReproError):
            BatchedNodeSolver(generate_knapsack(6), batch_size=0)
        with pytest.raises(ReproError):
            SolverOptions(node_limit=0)
        with pytest.raises(ReproError):
            SolverOptions(mip_gap=-1e-9)
        with pytest.raises(ReproError):
            SolverOptions(node_lp="quantum")

    @pytest.mark.parametrize("width", [2.5, "4", True, None], ids=repr)
    def test_round_width_must_be_an_int(self, width):
        """A width that is not a plain int is refused where it is given,
        not by ``range(width)`` mid-search (``True`` is not width 1)."""
        with pytest.raises(ReproError, match="mip_node_batch"):
            SolveOptions(device=Device(V100), mip_node_batch=width)
        with pytest.raises(ReproError, match="round width"):
            BatchedRoundEngine(width)

    def test_lp_engine_options(self):
        from repro.lp.interior_point import IPMOptions
        from repro.lp.pdhg import PDHGOptions
        from repro.lp.simplex import SimplexOptions

        with pytest.raises(ReproError):
            SimplexOptions(max_iterations=0)
        with pytest.raises(ReproError):
            IPMOptions(max_iterations=0)
        with pytest.raises(ReproError):
            PDHGOptions(tolerance=-1e-8)
        with pytest.raises(ReproError):
            PDHGOptions(max_iterations=0)
