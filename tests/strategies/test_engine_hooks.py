"""DeviceCostHook and MeteredEngine accounting tests."""

import numpy as np
import pytest

from repro.api import SolveOptions, solve
from repro.device.gpu import Device
from repro.device.spec import CPU_HOST, V100
from repro.lp.problem import LinearProgram
from repro.lp.simplex import solve_standard_form
from repro.lp.warm import slack_start, solve_lp
from repro.strategies.engine import DeviceCostHook, MeteredEngine
from repro.mip.solver import BranchAndBoundSolver, SolverOptions
from repro.problems.knapsack import generate_knapsack


def small_lp(seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((6, 9))
    return LinearProgram(
        c=rng.standard_normal(9),
        a_ub=a,
        b_ub=np.abs(a) @ rng.random(9) + 1.0,
        ub=np.full(9, 10.0),
    )


def primal(lp, hook):
    """The primal loop from the slack basis (``small_lp``'s b > 0): the
    loop whose LU, triangular solves and eta chain the hook prices."""
    sf = lp.to_standard_form()
    return solve_standard_form(sf, slack_start(sf).basis, hook=hook)


class TestDeviceCostHook:
    def test_dense_mode_charges_dense_kernels(self):
        device = Device(V100)
        primal(small_lp(), DeviceCostHook(device, mode="dense"))
        assert device.metrics.count("kernels.getrf") > 0
        assert device.metrics.count("kernels.trsv") > 0
        assert device.metrics.count("kernels.gemv") > 0
        assert device.metrics.count("kernels.sparse_getrf") == 0

    def test_sparse_mode_charges_sparse_kernels(self):
        device = Device(V100)
        primal(small_lp(), DeviceCostHook(device, mode="sparse", density=0.3))
        assert device.metrics.count("kernels.sparse_getrf") > 0
        assert device.metrics.count("kernels.spmv") > 0
        assert device.metrics.count("kernels.getrf") == 0

    def test_sparse_mode_denser_costs_more(self):
        thin = Device(V100)
        solve_lp(small_lp(1), hook=DeviceCostHook(thin, mode="sparse", density=0.05))
        thick = Device(V100)
        solve_lp(small_lp(1), hook=DeviceCostHook(thick, mode="sparse", density=1.0))
        assert thick.clock.now > thin.clock.now

    def test_same_lp_same_kernel_stream(self):
        """Determinism: two identical solves charge identical time."""
        a, b = Device(V100), Device(V100)
        solve_lp(small_lp(2), hook=DeviceCostHook(a, mode="dense"))
        solve_lp(small_lp(2), hook=DeviceCostHook(b, mode="dense"))
        assert a.clock.now == b.clock.now
        assert a.kernel_count() == b.kernel_count()

    def test_eta_chain_charged_after_updates(self):
        device = Device(V100)
        primal(small_lp(3), DeviceCostHook(device, mode="dense"))
        assert device.metrics.count("kernels.eta_chain") > 0


class TestMeteredEngine:
    def test_probe_option_limits_iterations(self):
        engine = MeteredEngine(V100)
        problem = generate_knapsack(10, seed=0)
        sf = problem.relaxation().to_standard_form()
        engine.begin_search(problem, sf)
        res = engine.solve_relaxation(sf, probe=True).result
        assert res.iterations <= 200

    def test_elapsed_seconds_monotone_across_nodes(self):
        engine = MeteredEngine(V100)
        problem = generate_knapsack(12, seed=1)
        solver = BranchAndBoundSolver(problem, SolverOptions(), engine=engine)
        result = solver.solve()
        assert result.ok
        assert engine.elapsed_seconds > 0

    def test_cpu_spec_is_free_of_transfers(self):
        engine = MeteredEngine(CPU_HOST)
        problem = generate_knapsack(10, seed=2)
        BranchAndBoundSolver(problem, SolverOptions(), engine=engine).solve()
        assert engine.device.metrics.count("transfers.h2d") == 0

    def test_report_snapshot(self):
        engine = MeteredEngine(V100)
        problem = generate_knapsack(10, seed=3)
        report = solve(problem, SolveOptions(strategy="test", engine=engine))
        assert report.strategy == "test"
        assert report.makespan_seconds == pytest.approx(engine.elapsed_seconds)
        assert report.metrics["platform"]["kernels"] == engine.device.kernel_count()
