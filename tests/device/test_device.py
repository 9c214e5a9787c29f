"""Tests for the Device meter: memory, transfers, streams, kernel prices."""

import numpy as np
import pytest

from repro.device.gpu import Device
from repro.device.kernels import (
    batched_getrf_kernel,
    eta_chain_kernel,
    gemm_kernel,
    getrf_kernel,
    sparse_getrf_kernel,
    spmv_kernel,
)
from repro.device.spec import CPU_HOST, V100, DeviceSpec
from repro.errors import DeviceMemoryError, InvalidHandleError
from repro.la.updates import ProductFormInverse
from repro.strategies.engine import DeviceCostHook


def make_gpu(**overrides):
    return Device(V100)


class TestTransfersAndMemory:
    def test_upload_charges_transfer(self):
        dev = make_gpu()
        x = dev.upload(np.ones(1000))
        assert dev.metrics.count("transfers.h2d") == 1
        assert dev.metrics.count("transfers.h2d_bytes") == 8000
        assert dev.clock.now > 0
        x.require_on(dev)  # live and resident

    def test_footprint_follows_the_dtype(self):
        dev = make_gpu()
        x = dev.upload(np.zeros(10, np.float32))
        assert x.nbytes == 40
        assert dev.metrics.count("transfers.h2d_bytes") == 40
        assert dev.memory.used == 40

    def test_non_array_payloads_are_sized_by_the_caller(self):
        dev = make_gpu()
        assert dev.alloc(("lu", "piv"), nbytes=96).nbytes == 96
        with pytest.raises(TypeError, match="cannot size"):
            dev.alloc(("lu", "piv"))

    def test_download_charges_transfer(self):
        dev = make_gpu()
        x = dev.upload(np.ones(10))
        out = dev.download(x)
        np.testing.assert_array_equal(out, np.ones(10))
        assert dev.metrics.count("transfers.d2h") == 1

    def test_host_device_transfers_free(self):
        host = Device(CPU_HOST)
        x = host.upload(np.ones(1000))
        host.download(x)
        assert host.metrics.count("transfers.h2d") == 0
        assert host.metrics.count("transfers.d2h") == 0
        assert host.clock.now == 0.0

    def test_free_releases_memory(self):
        dev = make_gpu()
        x = dev.upload(np.ones(100))
        used = dev.memory.used
        dev.free(x)
        assert dev.memory.used == used - 800
        with pytest.raises(InvalidHandleError, match="after free"):
            x.require_on(dev)

    def test_use_after_free_raises(self):
        dev = make_gpu()
        x = dev.upload(np.ones(4))
        dev.free(x)
        with pytest.raises(InvalidHandleError):
            dev.download(x)

    def test_cross_device_use_raises(self):
        a, b = make_gpu(), make_gpu()
        x = a.upload(np.ones(4))
        with pytest.raises(InvalidHandleError):
            b.download(x)

    def test_oom_on_tiny_device(self):
        tiny = DeviceSpec(
            name="tiny",
            peak_flops=1e12,
            mem_bandwidth=1e11,
            mem_capacity=1024,
            kernel_launch_latency=1e-6,
            sync_latency=1e-7,
            dense_efficiency=0.8,
            sparse_efficiency=0.1,
            parallel_lanes=1024,
            max_concurrent_kernels=4,
        )
        dev = Device(tiny)
        with pytest.raises(DeviceMemoryError):
            dev.upload(np.ones(1000))


class TestPFIOnDevice:
    def test_ftran_update_btran_zero_transfers(self):
        """§5.1: resident basis updates move no data across the link."""
        dev = make_gpu()
        hook = DeviceCostHook(dev, mode="dense")
        rng = np.random.default_rng(4)
        n = 5
        b_mat = rng.standard_normal((n, n)) + n * np.eye(n)
        dev.upload(b_mat)
        pfi = ProductFormInverse(b_mat)
        hook.on_factorize(n)
        transfers_before = dev.transfers.total_transfers

        current = b_mat.copy()
        for step in range(3):
            a_q = rng.standard_normal(n) + 1.0  # column already resident (part of A)
            w = pfi.ftran(a_q)
            hook.on_ftran(n, pfi.num_etas)
            pos = step
            if abs(w[pos]) < 1e-8:
                continue
            pfi.update(w, pos)
            hook.on_vector_pass(n)
            current[:, pos] = a_q
            rhs = rng.standard_normal(n)
            x = pfi.ftran(rhs)
            hook.on_ftran(n, pfi.num_etas)
            np.testing.assert_allclose(x, np.linalg.solve(current, rhs), atol=1e-7)
            y = pfi.btran(rhs)
            hook.on_btran(n, pfi.num_etas)
            np.testing.assert_allclose(y, np.linalg.solve(current.T, rhs), atol=1e-7)
        assert dev.transfers.total_transfers == transfers_before
        assert pfi.num_etas == 3
        assert dev.metrics.count("kernels.axpy") == 3 and dev.metrics.count("kernels.getrf") == 1
        assert dev.metrics.count("kernels.trsv") == 2 * 9 and dev.metrics.count("kernels.eta_chain") == 8


class TestStreams:
    def test_concurrent_streams_overlap(self):
        """K identical kernels on K streams finish in ~1 kernel time."""
        dev = make_gpu()
        n = 64
        serial_dev = make_gpu()

        t0 = dev.clock.now
        for _ in range(8):
            dev._charge(getrf_kernel(n), dev.create_stream())
        dev.synchronize()
        overlapped = dev.clock.now - t0

        t0 = serial_dev.clock.now
        for _ in range(8):
            serial_dev._charge(getrf_kernel(n), None)
        serial = serial_dev.clock.now - t0

        assert overlapped < serial / 4

    def test_throughput_bound_beyond_max_concurrency(self):
        """More streams than max_concurrent_kernels can't keep speeding up."""
        dev = make_gpu()
        k = dev.spec.max_concurrent_kernels * 4
        n = 64
        one_cost = getrf_kernel(n).duration(dev.spec)
        t0 = dev.clock.now
        for _ in range(k):
            dev._charge(getrf_kernel(n), dev.create_stream())
        dev.synchronize()
        elapsed = dev.clock.now - t0
        expected_floor = k * one_cost / dev.spec.max_concurrent_kernels
        assert elapsed == pytest.approx(expected_floor, rel=1e-9)

    def test_sync_is_idempotent(self):
        dev = make_gpu()
        dev.synchronize()
        t = dev.clock.now
        dev.synchronize()
        assert dev.clock.now == t


class TestKernelCostModel:
    def test_getrf_scales_superlinearly(self):
        small = getrf_kernel(1024).duration(V100)
        large = getrf_kernel(4096).duration(V100)
        # 4x size → 64x flops; sync/latency terms soften the observed ratio.
        assert large > 10 * small

    def test_batched_cheaper_than_looped(self):
        """§5.5/§4.3: one batched launch beats k serial small launches."""
        k, n = 256, 16
        looped = k * getrf_kernel(n).duration(V100)
        batched = batched_getrf_kernel(k, n).duration(V100)
        assert batched < looped / 10

    def test_sparse_slower_than_dense_same_flops(self):
        """§5.4: sparse kernels sustain far less of peak."""
        n = 256
        dense = gemm_kernel(n, 1, n).duration(V100)
        sparse = spmv_kernel(n, n * n).duration(V100)  # same 2n² flops
        assert sparse > dense

    def test_eta_chain_linear_in_etas(self):
        short = eta_chain_kernel(128, 2).duration(V100)
        long = eta_chain_kernel(128, 64).duration(V100)
        assert long > short

    def test_sparse_getrf_level_sensitivity(self):
        """Few levels (parallel DAG) beats many levels at equal fill."""
        fast = sparse_getrf_kernel(1024, 10_000, 4).duration(V100)
        slow = sparse_getrf_kernel(1024, 10_000, 1024).duration(V100)
        assert slow > fast

    def test_cpu_beats_gpu_on_tiny_serial_kernels(self):
        """Launch latency + poor utilization make tiny kernels CPU wins."""
        tiny = getrf_kernel(8)
        assert tiny.duration(CPU_HOST) < tiny.duration(V100)

    def test_gpu_beats_cpu_on_large_dense(self):
        big = getrf_kernel(2048)
        assert big.duration(V100) < big.duration(CPU_HOST)
