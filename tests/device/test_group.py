"""Multi-GPU device group tests."""

import pytest

from repro.device.group import DeviceGroup, allreduce_seconds
from repro.device.spec import NVLINK
from repro.errors import DeviceError


class TestDeviceGroup:
    def test_construction(self):
        group = DeviceGroup(4)
        assert group.size == 4
        assert group.makespan == 0.0

    def test_bad_size(self):
        with pytest.raises(DeviceError):
            DeviceGroup(0)

    def test_bad_rank(self):
        with pytest.raises(DeviceError):
            DeviceGroup(2).device(5)

    def test_allreduce_scales_with_ring(self):
        nbytes = 1024 * 1024
        t_small = allreduce_seconds(NVLINK, 2, nbytes)
        t_large = allreduce_seconds(NVLINK, 8, nbytes)
        # Ring allreduce: 2(k-1) chunk steps; more steps but smaller
        # chunks -> sublinear growth, still larger for bigger rings at
        # this latency-dominated size.
        assert t_large > t_small

    def test_allreduce_single_device_free(self):
        assert allreduce_seconds(NVLINK, 1, 10**6) == 0.0

    def test_synchronize(self):
        group = DeviceGroup(3)
        group.device(1).clock.advance(2.0)
        finish = group.synchronize()
        assert finish == pytest.approx(2.0)
        assert all(d.clock.now == pytest.approx(2.0) for d in group.devices)


class TestBigMipIntraNode:
    def test_nvlink_reduces_big_mip_overhead(self):
        from repro.mip.solver import BranchAndBoundSolver, SolverOptions
        from repro.problems.knapsack import generate_knapsack
        from repro.strategies.big_mip import BigMipEngine

        problem = generate_knapsack(12, seed=1)
        inter = BigMipEngine(num_devices=4, intra_node=False)
        BranchAndBoundSolver(problem, SolverOptions(), engine=inter).solve()
        intra = BigMipEngine(num_devices=4, intra_node=True)
        result = BranchAndBoundSolver(problem, SolverOptions(), engine=intra).solve()
        assert result.ok
        # Direct GPU-GPU reduction beats host-mediated messages (§3.1).
        assert intra.elapsed_seconds < inter.elapsed_seconds
