"""Tests for device specs, the simulated clock, and the memory pool."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device.clock import SimClock
from repro.device.memory import MemoryPool
from repro.device.spec import A100, CPU_HOST, NVLINK, PCIE3, V100
from repro.errors import DeviceError, DeviceMemoryError, InvalidHandleError


class TestDeviceSpec:
    def test_utilization_saturates(self):
        assert V100.utilization(10**9) == 1.0

    def test_utilization_small_kernel(self):
        u = V100.utilization(V100.parallel_lanes // 4)
        assert u == pytest.approx(0.25)

    def test_utilization_zero_elements(self):
        assert 0.0 < V100.utilization(0) < 1e-3

    def test_sparse_efficiency_lower_than_dense(self):
        for spec in (V100, A100, CPU_HOST):
            assert spec.sparse_efficiency < spec.dense_efficiency

    def test_cpu_relative_sparse_efficiency_higher(self):
        # The §5.4 asymmetry: CPUs tolerate irregularity better.
        assert (
            CPU_HOST.sparse_efficiency / CPU_HOST.dense_efficiency
            > V100.sparse_efficiency / V100.dense_efficiency
        )

    def test_effective_flops_dense_vs_sparse(self):
        big = 10**9
        assert V100.effective_flops(big) > 10 * V100.effective_flops(big, sparse=True)

    def test_gpu_peak_exceeds_cpu_peak(self):
        assert V100.peak_flops > CPU_HOST.peak_flops

    def test_cpu_memory_capacity_order_of_magnitude_larger(self):
        # §3: CPU memory "an order of magnitude greater" than GPU memory.
        assert CPU_HOST.mem_capacity >= 6 * A100.mem_capacity


class TestLinkSpec:
    def test_transfer_time_includes_latency(self):
        assert PCIE3.transfer_time(0) == pytest.approx(PCIE3.latency)

    def test_bandwidth_term(self):
        t = PCIE3.transfer_time(12_000_000_000)
        assert t == pytest.approx(PCIE3.latency + 1.0)

    def test_nvlink_faster_than_pcie(self):
        nbytes = 100 * 1024 * 1024
        assert NVLINK.transfer_time(nbytes) < PCIE3.transfer_time(nbytes)


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == pytest.approx(2.0)

    def test_negative_advance_raises(self):
        with pytest.raises(DeviceError):
            SimClock().advance(-1.0)

    def test_advance_to_never_goes_back(self):
        clock = SimClock()
        clock.advance(5.0)
        clock.advance_to(3.0)
        assert clock.now == 5.0
        clock.advance_to(7.0)
        assert clock.now == 7.0


class TestMemoryPool:
    def test_alloc_free_cycle(self):
        pool = MemoryPool(100)
        h = pool.alloc(60)
        assert pool.used == 60 and pool.free == 40
        assert pool.freeing(h) == 60
        assert pool.used == 0

    def test_oom_raises_with_details(self):
        pool = MemoryPool(100)
        pool.alloc(80)
        with pytest.raises(DeviceMemoryError) as err:
            pool.alloc(30)
        assert err.value.requested == 30
        assert err.value.free == 20
        assert err.value.capacity == 100

    def test_peak_tracks_high_water(self):
        pool = MemoryPool(100)
        a = pool.alloc(70)
        pool.freeing(a)
        pool.alloc(30)
        assert pool.peak == 70

    def test_double_free_raises(self):
        pool = MemoryPool(10)
        h = pool.alloc(5)
        pool.freeing(h)
        with pytest.raises(InvalidHandleError):
            pool.freeing(h)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            MemoryPool(0)

    def test_negative_alloc_rejected(self):
        with pytest.raises(ValueError):
            MemoryPool(10).alloc(-1)


@settings(max_examples=50, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=20)
)
def test_property_memory_conservation(sizes):
    """used == sum(live allocations) and never exceeds capacity."""
    pool = MemoryPool(1000)
    live = {}
    for i, size in enumerate(sizes):
        if size <= pool.free:
            live[pool.alloc(size)] = size
        if i % 3 == 2 and live:
            handle = next(iter(live))
            pool.freeing(handle)
            del live[handle]
        assert pool.used == sum(live.values())
        assert 0 <= pool.used <= pool.capacity
        assert len(pool._allocations) == len(live)
