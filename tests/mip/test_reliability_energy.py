"""Reliability branching, energy accounting, and multiknapsack tests."""

import itertools

import numpy as np
import pytest

from repro.device import kernels as K
from repro.device.gpu import Device
from repro.device.spec import CPU_HOST, V100
from repro.mip.result import MIPStatus
from repro.mip.solver import BranchAndBoundSolver, SolverOptions
from repro.problems.knapsack import generate_knapsack, knapsack_dp_optimal
from repro.problems.multiknapsack import generate_multiknapsack
from repro.strategies.engine import DeviceCostHook


def brute_force(problem):
    best = -np.inf
    for bits in itertools.product([0.0, 1.0], repeat=problem.n):
        x = np.array(bits)
        if problem.is_feasible(x):
            best = max(best, problem.objective(x))
    return best


class TestReliabilityBranching:
    def test_matches_other_rules(self):
        p = generate_knapsack(14, seed=5)
        expected, _ = knapsack_dp_optimal(p)
        res = BranchAndBoundSolver(
            p, SolverOptions(branching="reliability")
        ).solve()
        assert res.status is MIPStatus.OPTIMAL
        assert res.objective == pytest.approx(expected)

    def test_competitive_tree_size(self):
        from repro.problems.random_mip import generate_random_mip

        p = generate_random_mip(14, 10, seed=21, bound=4.0)
        most_frac = BranchAndBoundSolver(
            p, SolverOptions(branching="most_fractional")
        ).solve()
        reliability = BranchAndBoundSolver(
            p, SolverOptions(branching="reliability")
        ).solve()
        assert reliability.objective == pytest.approx(most_frac.objective)
        assert (
            reliability.stats.nodes_processed
            <= most_frac.stats.nodes_processed
        )


class TestMultiKnapsack:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_brute_force(self, seed):
        p = generate_multiknapsack(8, 3, seed=seed)
        expected = brute_force(p)
        res = BranchAndBoundSolver(p, SolverOptions()).solve()
        assert res.objective == pytest.approx(expected)

    def test_multiple_fractional_at_root(self):
        from repro.lp.warm import solve_lp

        p = generate_multiknapsack(20, 5, seed=1)
        res = solve_lp(p.relaxation())
        # m binding rows -> up to m fractional vars; expect > 1.
        assert p.fractional_integers(res.x).size > 1


class TestEnergyAccounting:
    def test_energy_tracks_busy_time(self):
        device = Device(V100)
        device.alloc(np.eye(64) * 3.0)
        device._charge(K.getrf_kernel(64), None)
        assert device.energy_joules == pytest.approx(
            device.busy_seconds * V100.tdp_watts
        )
        assert device.energy_joules > 0

    def test_energy_in_summary(self):
        device = Device(V100)
        device.alloc(np.eye(4))
        assert "energy_joules" in device.summary()

    def test_gpu_more_energy_efficient_on_big_dense(self):
        """Paper §2.2: GPUs are more energy efficient on their workload."""
        big = K.gemm_kernel(4096, 4096, 4096)
        gpu_energy = big.duration(V100) * V100.tdp_watts
        cpu_energy = big.duration(CPU_HOST) * CPU_HOST.tdp_watts
        assert gpu_energy < cpu_energy

    def test_solver_energy_comparable_across_devices(self):
        p = generate_knapsack(12, seed=2)
        from repro.lp.warm import solve_lp

        gpu_dev = Device(V100)
        solve_lp(p.relaxation(), hook=DeviceCostHook(gpu_dev, mode="dense"))
        cpu_dev = Device(CPU_HOST)
        solve_lp(p.relaxation(), hook=DeviceCostHook(cpu_dev, mode="dense"))
        # Tiny LPs: the CPU is both faster and lower-energy (why §5.5
        # batches before putting them on the GPU).
        assert cpu_dev.energy_joules < gpu_dev.energy_joules
