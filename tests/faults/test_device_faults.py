"""Injection at the device layer: kernel retries, ECC, transfers."""

import numpy as np
import pytest

from repro.device.gpu import Device
from repro.device.kernels import gemm_kernel
from repro.device.spec import V100
from repro.errors import EccError, KernelFaultError, TransferFaultError
from repro.faults.injector import FaultInjector, active, injecting
from repro.faults.plan import (
    SITE_ECC,
    SITE_KERNEL,
    SITE_TRANSFER,
    FaultPlan,
    RetryPolicy,
    ScheduledFault,
)


def _charge_some(device, n=8):
    device.upload(np.eye(16))
    for _ in range(n):
        device._charge(gemm_kernel(16, 16, 16), None)
    device.synchronize()


class TestInjectingContext:
    def test_active_only_inside_context(self):
        assert active() is None
        with injecting(FaultPlan()) as injector:
            assert active() is injector
        assert active() is None

    def test_nested_injection_rejected(self):
        from repro.errors import FaultError

        with injecting(FaultPlan()):
            with pytest.raises(FaultError):
                with injecting(FaultPlan()):
                    pass


class TestKernelFaults:
    def test_scheduled_kernel_fault_charges_overhead(self):
        clean = Device(V100)
        _charge_some(clean)

        plan = FaultPlan(seed=0, scheduled=(ScheduledFault(site=SITE_KERNEL, at=2),))
        with injecting(plan) as injector:
            faulty = Device(V100)
            _charge_some(faulty)
            assert injector.counts()["injected"] == 1
            assert injector.counts()["recovered"] == 1
            assert injector.clean
        assert faulty.clock.now > clean.clock.now
        assert faulty.metrics.count("faults.kernel_retries") == 1

    def test_exhausted_retries_raise_with_fault_count(self):
        plan = FaultPlan(
            seed=0,
            scheduled=tuple(
                ScheduledFault(site=SITE_KERNEL, at=i) for i in range(3)
            ),
            retry=RetryPolicy(max_attempts=3),
        )
        with injecting(plan):
            device = Device(V100)
            with pytest.raises(KernelFaultError) as info:
                _charge_some(device)
            assert info.value.fault_count == 3

    def test_ecc_raises_immediately(self):
        plan = FaultPlan(seed=0, scheduled=(ScheduledFault(site=SITE_ECC, at=0),))
        with injecting(plan):
            device = Device(V100)
            with pytest.raises(EccError) as info:
                _charge_some(device)
            assert info.value.fault_count == 1


class TestTransferFaults:
    def test_timeout_costs_more_than_clean_run(self):
        clean = Device(V100)
        clean.upload(np.ones((64, 64)))
        clean.synchronize()

        plan = FaultPlan(
            seed=0,
            scheduled=(ScheduledFault(site=SITE_TRANSFER, at=0, kind="timeout"),),
        )
        with injecting(plan) as injector:
            faulty = Device(V100)
            faulty.upload(np.ones((64, 64)))
            faulty.synchronize()
            assert injector.clean
        assert faulty.clock.now > clean.clock.now
        assert faulty.metrics.count("faults.transfer_retries") == 1

    def test_exhausted_transfer_retries_raise(self):
        plan = FaultPlan(
            seed=0,
            scheduled=tuple(
                ScheduledFault(site=SITE_TRANSFER, at=i, kind="corrupt")
                for i in range(2)
            ),
            retry=RetryPolicy(max_attempts=2),
        )
        with injecting(plan):
            device = Device(V100)
            with pytest.raises(TransferFaultError):
                device.upload(np.ones((8, 8)))


class TestDeterminism:
    def test_same_plan_same_draws(self):
        plan = FaultPlan(seed=9, rates={SITE_KERNEL: 0.2}, max_faults=50)

        def run():
            with injecting(plan) as injector:
                device = Device(V100)
                try:
                    _charge_some(device, n=20)
                except Exception:
                    pass
                return injector.counts(), device.clock.now

        assert run() == run()

    def test_per_site_streams_independent(self):
        # Consuming draws at one site must not shift another site's.
        a = FaultInjector(FaultPlan(seed=5, rates={SITE_KERNEL: 0.3}))
        b = FaultInjector(FaultPlan(seed=5, rates={SITE_KERNEL: 0.3}))
        for _ in range(10):
            b.fire(SITE_TRANSFER)
        kernel_a = [a.fire(SITE_KERNEL) for _ in range(20)]
        kernel_b = [b.fire(SITE_KERNEL) for _ in range(20)]
        assert kernel_a == kernel_b

    def test_budget_caps_rate_based_faults(self):
        injector = FaultInjector(
            FaultPlan(seed=1, rates={SITE_KERNEL: 1.0}, max_faults=2)
        )
        fired = sum(injector.fire(SITE_KERNEL) is not None for _ in range(50))
        assert fired == 2

    def test_scheduled_faults_bypass_budget(self):
        injector = FaultInjector(
            FaultPlan(
                seed=1,
                scheduled=(ScheduledFault(site=SITE_KERNEL, at=5),),
                max_faults=0,
            )
        )
        fired = [injector.fire(SITE_KERNEL) is not None for _ in range(10)]
        assert fired == [i == 5 for i in range(10)]
