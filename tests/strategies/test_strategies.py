"""The four execution strategies: correctness, metering, paper claims."""

import numpy as np
import pytest

from repro.api import SolveOptions, solve
from repro.mip.result import MIPStatus
from repro.mip.solver import BranchAndBoundSolver, SolverOptions
from repro.problems.knapsack import generate_knapsack, knapsack_dp_optimal
from repro.problems.random_mip import generate_random_mip
from repro.strategies.big_mip import BigMipEngine
from repro.strategies.chooser import PathChoice, choose_path, estimate_paths
from repro.strategies.engine import CpuOrchestratedEngine
from repro.strategies.gpu_only import GpuOnlyEngine
from repro.strategies.hybrid import HybridEngine
from repro.strategies.registry import metered_strategies
from repro.errors import ReproError


PROBLEM = generate_knapsack(14, seed=3)
EXPECTED, _ = knapsack_dp_optimal(PROBLEM)


def run_strategy(problem, strategy):
    return solve(problem, SolveOptions(strategy=strategy))


class TestCorrectnessAcrossStrategies:
    @pytest.mark.parametrize("strategy", metered_strategies())
    def test_same_optimum_every_strategy(self, strategy):
        report = run_strategy(PROBLEM, strategy)
        assert report.result.status is MIPStatus.OPTIMAL
        assert report.result.objective == pytest.approx(EXPECTED)
        assert report.makespan_seconds > 0.0

    def test_unknown_strategy(self):
        with pytest.raises(ReproError):
            run_strategy(PROBLEM, "nope")


class TestCpuOrchestrated:
    def test_matrix_uploaded_once(self):
        engine = CpuOrchestratedEngine()
        solver = BranchAndBoundSolver(PROBLEM, SolverOptions(), engine=engine)
        result = solver.solve()
        assert result.status is MIPStatus.OPTIMAL
        # One matrix upload + one small delta per node.
        h2d = engine.device.metrics.count("transfers.h2d")
        nodes = result.stats.nodes_processed
        assert h2d == 1 + nodes
        # No matrix downloads without cuts.
        assert engine.device.metrics.count("transfers.d2h") == 0

    def test_cut_rounds_force_matrix_roundtrip(self):
        """§5.2: CPU cut generation costs a device→host matrix copy."""
        engine = CpuOrchestratedEngine(cut_generation="cpu")
        solver = BranchAndBoundSolver(
            PROBLEM, SolverOptions(cut_rounds=2), engine=engine
        )
        result = solver.solve()
        assert result.status is MIPStatus.OPTIMAL
        assert result.stats.cut_rounds > 0
        assert engine.device.metrics.count("transfers.d2h") >= result.stats.cut_rounds

    def test_gpu_resident_cuts_skip_roundtrip(self):
        engine = CpuOrchestratedEngine(cut_generation="gpu")
        solver = BranchAndBoundSolver(
            PROBLEM, SolverOptions(cut_rounds=2), engine=engine
        )
        result = solver.solve()
        assert result.stats.cut_rounds > 0
        assert engine.device.metrics.count("transfers.d2h") == 0


class TestGpuOnly:
    def test_charges_tree_management(self):
        engine = GpuOnlyEngine()
        BranchAndBoundSolver(PROBLEM, SolverOptions(), engine=engine).solve()
        # Tree ops land on the device as SIMD-hostile kernels.
        assert engine.device.metrics.count("kernels.spmv") > 0

    def test_slower_than_cpu_orchestrated(self):
        """§3: strategy 1 loses to strategy 2 on like-for-like searches."""
        gpu_only = run_strategy(PROBLEM, "gpu_only")
        orchestrated = run_strategy(PROBLEM, "cpu_orchestrated")
        assert gpu_only.makespan_seconds > orchestrated.makespan_seconds

    def test_node_store_consumes_device_memory(self):
        engine = GpuOnlyEngine()
        BranchAndBoundSolver(PROBLEM, SolverOptions(), engine=engine).solve()
        orchestrated = CpuOrchestratedEngine()
        BranchAndBoundSolver(PROBLEM, SolverOptions(), engine=orchestrated).solve()
        assert engine.device.memory.peak > orchestrated.device.memory.peak


class TestHybrid:
    def test_path_matches_chooser(self):
        engine = HybridEngine()
        p = generate_random_mip(16, 12, seed=0, density=1.0, bound=3.0)
        sf = p.relaxation().to_standard_form()  # the matrix that is resident
        density = float(np.count_nonzero(sf.a)) / sf.a.size
        BranchAndBoundSolver(p, SolverOptions(), engine=engine).solve()
        assert engine.path is choose_path(sf.m, sf.n, density)

    def test_sparse_problem_routes_to_cpu(self):
        engine = HybridEngine()
        # 100 real rows: the chooser prices the resident (standard-form)
        # matrix, and below ~100 rows dense kernels win on the host.
        p = generate_random_mip(150, 100, seed=1, density=0.03, bound=2.0)
        BranchAndBoundSolver(
            p, SolverOptions(node_limit=3), engine=engine
        ).solve()
        assert engine.path is PathChoice.SPARSE_CPU

    def test_cut_rounds_do_not_move_matrix(self):
        engine = HybridEngine()
        solver = BranchAndBoundSolver(
            PROBLEM, SolverOptions(cut_rounds=2), engine=engine
        )
        result = solver.solve()
        assert result.stats.cut_rounds > 0
        assert engine.device.metrics.count("transfers.d2h") == 0


class TestBigMip:
    def test_correct_but_communication_bound_on_small_problems(self):
        engine = BigMipEngine(num_devices=4)
        solver = BranchAndBoundSolver(PROBLEM, SolverOptions(), engine=engine)
        result = solver.solve()
        assert result.objective == pytest.approx(EXPECTED)
        single = run_strategy(PROBLEM, "cpu_orchestrated")
        # §3.4: for matrices that fit one device, sharding only adds cost.
        assert engine.elapsed_seconds > single.makespan_seconds
        assert engine.devices[0].metrics.count("comm.allreduce") > 0

    def test_needs_at_least_one_device(self):
        from repro.errors import DeviceError

        with pytest.raises(DeviceError):
            BigMipEngine(num_devices=0)

    def test_a_row_read_is_one_gather_and_no_kernel(self, monkeypatch):
        from repro.la.updates import ExplicitInverse

        engine = BigMipEngine(num_devices=4)
        sf = PROBLEM.relaxation().to_standard_form()
        engine.begin_search(PROBLEM, sf)
        hook, devices = engine.lp_hook, engine.devices

        def books():
            return [
                (d.kernel_count(), d.metrics.count("comm.allreduce"), d.clock.now)
                for d in devices
            ]

        start = books()
        hook.on_inverse_row(sf.m)
        read = books()
        hook._allreduce(8 * sf.m)  # what gathering a sharded solve's m-vector costs
        gather = books()
        for (k0, a0, t0), (k1, a1, t1), (k2, a2, t2) in zip(start, read, gather):
            assert k1 == k0 and a1 == a0 + 1
            assert t1 - t0 == pytest.approx(t2 - t1, rel=1e-12) and t1 > t0

        # Through a search: one on_inverse_row per row the dual loop reads.
        reads, charged = [0], [0]
        row, on_row = ExplicitInverse.row, type(hook).on_inverse_row

        def counted_row(inverse, pos):
            reads[0] += 1
            return row(inverse, pos)

        def counted_on_row(sharded, m):
            charged[0] += 1
            on_row(sharded, m)

        monkeypatch.setattr(ExplicitInverse, "row", counted_row)
        monkeypatch.setattr(type(hook), "on_inverse_row", counted_on_row)
        engine = BigMipEngine(num_devices=4)
        BranchAndBoundSolver(PROBLEM, SolverOptions(), engine=engine).solve()
        assert reads[0] == charged[0] > 0

    def test_shard_memory_split(self):
        engine = BigMipEngine(num_devices=4)
        sf = PROBLEM.relaxation().to_standard_form()
        engine.begin_search(PROBLEM, sf)
        expected_shard = max(8, sf.a.size * 8 // 4)
        for device in engine.devices:
            assert device.memory.used == expected_shard


class TestChooser:
    def test_dense_large_prefers_gpu(self):
        # GPU dense linear algebra wins once the LP is big enough to
        # fill the device (the paper's large-MIPLIB regime).
        assert choose_path(4096, 8192, 1.0) is PathChoice.DENSE_GPU

    def test_dense_small_prefers_cpu(self):
        # Small LPs are latency-bound: the host wins (why §5.5 batches).
        assert choose_path(256, 512, 1.0) is PathChoice.DENSE_CPU

    def test_very_sparse_prefers_cpu(self):
        assert choose_path(512, 1024, 0.005) is PathChoice.SPARSE_CPU

    def test_estimates_ordered_sensibly(self):
        est = estimate_paths(256, 512, 1.0)
        # At full density the "sparse" kernels price above dense ones.
        assert est.dense_gpu_seconds < est.sparse_gpu_seconds
        assert est.dense_cpu_seconds < est.sparse_cpu_seconds

    def test_density_crossover_exists(self):
        """At large size, density sweeps from sparse-CPU to dense-GPU."""
        choices = [choose_path(4096, 8192, d) for d in (0.005, 0.05, 1.0)]
        assert choices[0] is PathChoice.SPARSE_CPU
        assert choices[-1] is PathChoice.DENSE_GPU
