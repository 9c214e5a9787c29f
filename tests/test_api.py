"""repro.api.solve — the unified front door — and the strategy registry."""

import numpy as np
import pytest

from repro import obs
from repro.api import SolveOptions, SolveReport, solve
from repro.errors import ReproError
from repro.lp.problem import LinearProgram
from repro.mip.solver import BranchAndBoundSolver, ExecutionEngine, SolverOptions
from repro.problems.knapsack import generate_knapsack
from repro.strategies import registry


def small_lp():
    # maximize x1 + 2 x2 s.t. x1+x2 ≤ 4, x1+3x2 ≤ 6, x ≥ 0 → x=(3,1), obj 5.
    return LinearProgram(
        c=[1.0, 2.0],
        a_ub=[[1.0, 1.0], [1.0, 3.0]],
        b_ub=[4.0, 6.0],
    )


class TestSolveMip:
    def test_direct_matches_raw_solver(self):
        problem = generate_knapsack(10, seed=5)
        report = solve(problem)
        raw = BranchAndBoundSolver(problem, SolverOptions()).solve()
        assert report.ok and report.status == "optimal"
        assert report.objective == pytest.approx(raw.objective)
        assert report.strategy == "direct"
        assert report.makespan_seconds == 0.0
        assert report.result is not None
        assert report.x is not None

    def test_strategy_produces_metered_report(self):
        problem = generate_knapsack(8, seed=3)
        report = solve(problem, SolveOptions(strategy="hybrid"))
        direct = solve(problem)
        assert report.objective == pytest.approx(direct.objective)
        assert report.strategy == "hybrid"
        assert report.makespan_seconds > 0.0
        assert report.metrics["platform"]["kernels"] > 0
        assert report.metrics["counters"]  # device kernel counts

    def test_unknown_strategy_raises(self):
        with pytest.raises(ReproError, match="unknown strategy"):
            solve(generate_knapsack(6), SolveOptions(strategy="nope"))

    def test_explicit_engine_overrides_strategy(self):
        problem = generate_knapsack(8, seed=3)
        report = solve(problem, SolveOptions(strategy="ignored", engine=ExecutionEngine()))
        assert report.ok  # strategy name never resolved through the registry


class TestSolveLp:
    def test_lp_path(self):
        report = solve(small_lp())
        assert report.ok
        assert report.strategy == "lp"
        assert report.objective == pytest.approx(5.0)
        assert report.lp_result is not None
        assert report.lp_iterations > 0
        assert np.allclose(report.x, [3.0, 1.0])

    def test_lp_result_is_on_the_standard_form_and_certifies(self):
        from repro.check import certify_lp_result

        lp = LinearProgram(c=[2.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[4.0], ub=[3.0, 3.0])
        result = solve(lp).lp_result
        sf = lp.to_standard_form()
        assert result.basis.shape == (sf.m,) and result.at_upper.shape == (sf.n,)
        assert result.at_upper.tolist() == [True, False, False]
        assert certify_lp_result(lp, result).ok

    def test_infeasible_lp_and_mip_report_the_same_bound(self):
        """Nothing feasible: a maximization's bound is -inf, LP or MIP."""
        from repro.mip.problem import MIPProblem

        data = dict(c=[1.0], a_ub=[[1.0]], b_ub=[-1.0])
        lp = solve(LinearProgram(**data))
        mip = solve(MIPProblem(integer=[True], **data))
        assert lp.status == mip.status == "infeasible"
        assert lp.best_bound == mip.best_bound == float("-inf")

    def test_lp_on_device_charges_kernels(self):
        from repro.device.gpu import Device
        from repro.device.spec import V100

        device = Device(V100)
        report = solve(small_lp(), SolveOptions(device=device))
        assert report.ok
        assert report.makespan_seconds == device.clock.now > 0.0
        assert report.metrics["counters"]["kernels.getrf"] == 1


class TestReportShape:
    def test_to_dict_shared_shape(self):
        report = solve(generate_knapsack(8, seed=3), SolveOptions(strategy="hybrid"))
        d = report.to_dict()
        assert set(d) == {
            "status",
            "objective",
            "mode",
            "strategy",
            "trace_id",
            "bounds",
            "nodes",
            "lp_iterations",
            "makespan_seconds",
            "metrics",
        }
        assert set(d["bounds"]) == {"best_bound", "gap"}
        # A free solve exports the same shape; only the metered one
        # carries a platform account inside ``metrics``.
        sd = solve(generate_knapsack(8, seed=3)).to_dict()
        assert set(sd) == set(d)
        assert sd["status"] == d["status"]
        assert sd["objective"] == pytest.approx(d["objective"])
        assert d["metrics"]["platform"] == report.metrics["platform"]
        assert "platform" not in sd["metrics"]

    def test_non_finite_values_export_as_none(self):
        report = SolveReport(status="infeasible", objective=float("nan"), x=None, strategy="direct")
        d = report.to_dict()
        assert d["objective"] is None
        assert d["bounds"]["best_bound"] is None
        assert d["bounds"]["gap"] is None


class TestTracing:
    def test_trace_option_attaches_tracer(self):
        report = solve(generate_knapsack(8, seed=2), SolveOptions(trace=True))
        assert report.tracer is not None
        assert report.trace_id == report.tracer.trace_id
        assert report.tracer.find("mip.solve")
        assert obs.active() is None  # scope ended with the call

    def test_ambient_tracer_is_reused(self):
        with obs.tracing() as tracer:
            report = solve(generate_knapsack(8, seed=2))
        assert report.trace_id == tracer.trace_id
        assert report.tracer is None  # caller owns the ambient tracer

    def test_untraced_report_has_no_trace_id(self):
        report = solve(generate_knapsack(8, seed=2))
        assert report.trace_id == ""
        assert report.tracer is None


class TestRegistry:
    def test_builtins_registered(self):
        names = registry.available_strategies()
        assert {"direct", "gpu_only", "cpu_orchestrated", "hybrid", "big_mip_4"} <= set(
            names
        )
        assert names == sorted(names)

    def test_duplicate_registration_guard(self):
        with pytest.raises(ReproError, match="already registered"):
            registry.register_strategy("direct", ExecutionEngine)

    def test_runtime_registration(self):
        try:
            registry.register_strategy("test_custom", ExecutionEngine)
            report = solve(
                generate_knapsack(8, seed=4), SolveOptions(strategy="test_custom")
            )
            assert report.ok and report.strategy == "test_custom"
        finally:
            registry._REGISTRY.pop("test_custom", None)

    def test_engine_for_builds_fresh_instances(self):
        a = registry.engine_for("hybrid")
        b = registry.engine_for("hybrid")
        assert a is not b


class TestRunnerShim:
    """What the deleted ``strategies/runner.py`` shim promised, now read
    straight off the registry and the one ``solve(...)`` report."""

    def test_strategies_view_excludes_direct(self):
        metered = registry.metered_strategies()
        assert "direct" not in metered
        assert {"gpu_only", "cpu_orchestrated", "hybrid", "big_mip_4"} <= set(metered)
        assert set(metered) | {"direct"} == set(registry.available_strategies())

    def test_run_strategy_matches_api(self):
        report = solve(generate_knapsack(8, seed=3), SolveOptions(strategy="gpu_only"))
        assert report.result.objective == pytest.approx(report.objective)
        assert report.nodes == report.result.stats.nodes_processed
        assert report.makespan_seconds > 0.0
        assert report.metrics["platform"]["kernels"] > 0

    def test_run_strategy_rejects_reportless_engine(self):
        report = solve(
            generate_knapsack(6),
            SolveOptions(strategy="direct", engine=ExecutionEngine()),
        )
        assert report.ok and "platform" not in report.metrics
