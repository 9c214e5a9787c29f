"""PDHG node LPs inside branch-and-bound: exactness survives the padding."""

import numpy as np
import pytest

from benchmarks.bench_e2_strategy_comparison import INSTANCES as E2_INSTANCES
from repro.api import SolveOptions, solve
from repro.check import certify_mip_result
from repro.check.differential import _highs_run
from repro.device.gpu import Device
from repro.device.spec import V100
from repro.errors import ReproError
from repro.lp.pdhg import PDHGOptions
from repro.mip.batch_solver import BatchedNodeSolver
from repro.mip.result import MIPStatus
from repro.mip.solver import BranchAndBoundSolver, ExecutionEngine, SolverOptions
from repro.problems.knapsack import generate_knapsack, knapsack_dp_optimal
from repro.problems.random_mip import generate_random_mip


class TestSerialPdhgNodes:
    def test_knapsack_matches_dp(self):
        p = generate_knapsack(12, seed=5)
        expected, _ = knapsack_dp_optimal(p)
        engine = ExecutionEngine(node_lp="pdhg")
        res = BranchAndBoundSolver(p, SolverOptions(), engine=engine).solve()
        assert res.status is MIPStatus.OPTIMAL
        assert res.objective == pytest.approx(expected)
        assert engine.pdhg_stats["solves"] > 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_mip_matches_simplex_nodes(self, seed):
        p = generate_random_mip(6, 4, seed=seed)
        exact = BranchAndBoundSolver(p, SolverOptions()).solve()
        pdhg = BranchAndBoundSolver(
            p, SolverOptions(node_lp="pdhg"), engine=ExecutionEngine(node_lp="pdhg")
        ).solve()
        assert pdhg.status is exact.status
        if exact.status is MIPStatus.OPTIMAL:
            assert pdhg.objective == pytest.approx(exact.objective, abs=1e-5)

    def test_first_order_nodes_take_no_pivots_and_no_cold_start(self):
        """A trusted PDHG node is neither a warm nor a cold start: its
        sweeps are ``pdhg_stats["iterations"]``, never simplex pivots;
        only the members re-solved exactly take pivots and count a start."""
        engine = ExecutionEngine(node_lp="pdhg")
        res = BranchAndBoundSolver(
            generate_knapsack(16, seed=4), SolverOptions(node_lp="pdhg"), engine=engine
        ).solve()
        stats, pdhg = res.stats, engine.pdhg_stats
        assert res.status is MIPStatus.OPTIMAL
        assert pdhg["solves"] == stats.nodes_processed > pdhg["fallbacks"]
        assert stats.warm_starts + stats.cold_starts == pdhg["fallbacks"]
        assert stats.lp_iterations == stats.warm_pivots + stats.cold_pivots
        assert stats.lp_iterations < pdhg["iterations"]

    def test_solver_options_select_engine(self):
        # node_lp travels through SolverOptions to the default engine.
        p = generate_knapsack(10, seed=3)
        expected, _ = knapsack_dp_optimal(p)
        res = BranchAndBoundSolver(p, SolverOptions(node_lp="pdhg")).solve()
        assert res.status is MIPStatus.OPTIMAL
        assert res.objective == pytest.approx(expected)


class TestApiIntegration:
    def test_certificate_clean_on_differential_corpus(self):
        # Acceptance: api.solve with the PDHG node engine stays exact
        # under the rational certificate audit across a small corpus.
        corpus = [generate_knapsack(10, seed=2)] + [
            generate_random_mip(5, 3, seed=s) for s in range(3)
        ]
        for problem in corpus:
            direct = solve(problem)
            report = solve(
                problem, SolveOptions(solver=SolverOptions(node_lp="pdhg"))
            )
            assert report.status == direct.status
            if direct.ok:
                assert report.objective == pytest.approx(direct.objective, abs=1e-6)
                audit = certify_mip_result(problem, report.result)
                assert audit.ok, [c.name for c in audit.failures]

    def test_pdhg_strategy_is_registered(self):
        p = generate_knapsack(10, seed=4)
        expected, _ = knapsack_dp_optimal(p)
        report = solve(p, SolveOptions(strategy="pdhg"))
        assert report.ok
        assert report.objective == pytest.approx(expected)
        # The metered engine priced a first-order kernel stream.
        assert report.makespan_seconds > 0.0
        assert report.metrics["counters"]["pdhg.solves"] > 0

    @pytest.mark.parametrize("strategy", ["hybrid", "cpu_orchestrated", "gpu_only"])
    def test_metered_strategies_honour_node_lp(self, strategy):
        # One node-LP path: every engine that can price PDHG runs it when
        # asked, instead of silently solving simplex nodes.
        p = generate_knapsack(10, seed=4)
        expected, _ = knapsack_dp_optimal(p)
        report = solve(
            p, SolveOptions(strategy=strategy, solver=SolverOptions(node_lp="pdhg"))
        )
        assert report.ok
        assert report.objective == pytest.approx(expected)
        assert report.metrics["counters"]["pdhg.solves"] > 0

    def test_big_mip_refuses_pdhg_nodes(self):
        # No sharded first-order price exists.
        with pytest.raises(ReproError, match="pdhg"):
            solve(
                generate_knapsack(8, seed=1),
                SolveOptions(strategy="big_mip_4", solver=SolverOptions(node_lp="pdhg")),
            )

    def test_loose_tolerance_still_exact_from_padding(self):
        # A deliberately sloppy eps yields loose node bounds; the padded
        # upper_bound keeps pruning sound, so the incumbent stays optimal.
        p = generate_knapsack(10, seed=6)
        expected, _ = knapsack_dp_optimal(p)
        engine = ExecutionEngine(node_lp="pdhg")
        engine.pdhg_options = PDHGOptions(tolerance=1e-5)
        report = solve(p, SolveOptions(engine=engine))
        assert report.ok
        assert report.objective == pytest.approx(expected)


class TestBatchedPdhgNodes:
    @pytest.mark.parametrize("batch_size", [4, 8])
    def test_batched_matches_serial_optimum(self, batch_size):
        p = generate_knapsack(12, seed=7)
        expected, _ = knapsack_dp_optimal(p)
        solver = BatchedNodeSolver(
            p, SolverOptions(node_lp="pdhg"), batch_size=batch_size
        )
        res = solver.solve()
        assert res.status is MIPStatus.OPTIMAL
        assert res.objective == pytest.approx(expected)
        counters = solver.device.metrics.to_dict()["counters"]
        assert solver.rounds >= 1
        # Every evaluated node was a member of a first-order round.
        assert counters["pdhg.solves"] == res.stats.nodes_processed
        assert counters["pdhg.fallbacks"] <= counters["pdhg.solves"]

    def test_batched_mixed_integer(self):
        p = generate_random_mip(8, 5, seed=3, integer_fraction=0.5, bound=4.0)
        exact = BatchedNodeSolver(p, batch_size=8).solve()
        pdhg = BatchedNodeSolver(
            p, SolverOptions(node_lp="pdhg"), batch_size=8
        ).solve()
        assert pdhg.objective == pytest.approx(exact.objective, abs=1e-5)

    def test_api_batched_path_with_device(self):
        p = generate_knapsack(10, seed=8)
        expected, _ = knapsack_dp_optimal(p)
        report = solve(
            p,
            SolveOptions(
                solver=SolverOptions(node_lp="pdhg"),
                device=Device(V100),
                mip_node_batch=4,
            ),
        )
        assert report.ok
        assert report.objective == pytest.approx(expected)
        assert report.makespan_seconds > 0.0
        assert report.metrics["counters"]["pdhg.solves"] > 0


class TestOneFirstOrderRound:
    @pytest.mark.parametrize("name,problem", E2_INSTANCES, ids=[n for n, _ in E2_INSTANCES])
    def test_every_width_and_engine_reaches_the_reference(self, name, problem):
        # Width 1 is a round of one: the batched solver at widths 1 and 8
        # and the metered ``pdhg`` strategy run the same first-order round.
        if name.startswith("knapsack"):
            expected, _ = knapsack_dp_optimal(problem)
        else:
            expected = _highs_run(problem, problem.integer.astype(int)).objective
        runs = []
        for width in (1, 8):
            solver = BatchedNodeSolver(problem, SolverOptions(node_lp="pdhg"), batch_size=width)
            runs.append((solver.solve(), solver.device.metrics.counters))
        report = solve(problem, SolveOptions(strategy="pdhg"))
        runs.append((report.result, report.metrics["counters"]))
        for res, counters in runs:
            assert res.status is MIPStatus.OPTIMAL
            assert res.objective == pytest.approx(expected, abs=1e-5)
            # One vocabulary: the batched engine and the metered one
            # surface the same first-order counters, one solve per node.
            assert counters["pdhg.solves"] == res.stats.nodes_processed
            assert 0 <= counters["pdhg.fallbacks"] < counters["pdhg.solves"]
