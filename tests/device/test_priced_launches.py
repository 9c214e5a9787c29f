"""Price once, launch many: the memoised builders and the device price table.

Caching a price must be invisible: whatever a device charges for a
launch equals ``KernelCost.duration(spec)`` computed fresh, on every
spec, under fault injection, at and past the documented caps — and a
launch the device rejects leaves no trace at all.
"""

import dataclasses

import numpy as np
import pytest

from repro.device import gpu
from repro.device import kernels as K
from repro.device.gpu import Device
from repro.device.spec import A100, CPU_HOST, MI100, V100
from repro.errors import StreamError
from repro.faults.injector import injecting
from repro.faults.plan import SITE_KERNEL, FaultPlan, RetryPolicy, ScheduledFault

#: Same *name* as the V100, another launch latency: a table keyed on
#: ``spec.name`` would hand this device the V100's prices.
V100_SLOW_LAUNCH = dataclasses.replace(V100, kernel_launch_latency=9e-6)
SPECS = [V100, A100, MI100, CPU_HOST, V100_SLOW_LAUNCH]

#: Every builder in the module, with arguments of a plausible launch.
BUILDER_ARGS = {
    K.gemm_kernel: (12, 9, 7),
    K.gemv_kernel: (30, 20),
    K.axpy_kernel: (64,),
    K.dot_kernel: (64,),
    K.getrf_kernel: (24,),
    K.getri_kernel: (24,),
    K.ger_kernel: (24, 24),
    K.potrf_kernel: (24,),
    K.trsv_kernel: (40,),
    K.trsm_kernel: (40, 6),
    K.spmv_kernel: (64, 256),
    K.sparse_getrf_kernel: (64, 700, 9),
    K.sparse_trsv_kernel: (64, 350, 9),
    K.batched_getrf_kernel: (8, 12),
    K.batched_trsv_kernel: (8, 12),
    K.eta_chain_kernel: (20, 5),
    K.batched_gemm_kernel: (8, 1, 14, 10),
    K.batched_kernel: (K.gemv_kernel(16, 16), 4),
    K.fused_kernel: (K.gemv_kernel(30, 20), K.axpy_kernel(30)),
}


def fresh(cost: K.KernelCost) -> K.KernelCost:
    """An equal cost that is a different object (nothing cached knows it)."""
    copy = dataclasses.replace(cost)
    assert copy == cost and copy is not cost
    return copy


def test_every_builder_is_covered():
    builders = {
        obj for name, obj in vars(K).items()
        if name.endswith("_kernel") and callable(obj)
    }
    assert builders == set(BUILDER_ARGS)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.name}@{s.kernel_launch_latency}")
@pytest.mark.parametrize("builder", BUILDER_ARGS, ids=lambda b: b.__name__)
def test_charged_duration_is_the_fresh_roofline_price(builder, spec):
    cost = builder(*BUILDER_ARGS[builder])
    expected = fresh(cost).duration(spec)
    device = Device(spec)
    stream = device.create_stream()
    # First launch prices it, later ones read the table; sync and async.
    charged = [device._charge(cost, None), device._charge(cost, None)]
    charged.append(device._charge(fresh(cost), stream))
    assert charged == [expected] * 3
    assert device.kernel_count() == device.metrics.count(f"kernels.{cost.name}") == 3
    assert device.metrics.time(f"time.kernel.{cost.name}") == device.busy_seconds
    assert device.busy_seconds == expected + expected + expected


def test_builders_return_the_memoised_object():
    for builder, args in BUILDER_ARGS.items():
        assert builder(*args) is builder(*args)
        assert builder(*args) == builder.__wrapped__(*args)


#: Every builder's launch that is one kernel, to fuse in every order.
PLAIN = [
    builder(*args) for builder, args in BUILDER_ARGS.items() if builder is not K.fused_kernel
]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.name}@{s.kernel_launch_latency}")
@pytest.mark.parametrize("width", [1, 2, 3])
def test_a_fused_launch_pays_one_launch_and_every_body(spec, width):
    launch = spec.kernel_launch_latency
    for start in range(len(PLAIN)):
        parts = tuple(PLAIN[(start + i) % len(PLAIN)] for i in range(width))
        fused = K.fused_kernel(*parts)
        if width == 1:
            assert fused is parts[0]  # a fused kernel of one part is that part
            continue
        assert fused.name == "+".join(part.name for part in parts)
        assert fused.duration(spec) == launch + sum(
            part.duration(spec) - launch for part in parts
        )
        for batch in (1, 4):
            assert K.batched_kernel(fused, batch) == K.fused_kernel(
                *(K.batched_kernel(part, batch) for part in parts)
            )
        # Fusion saves launches and nothing else.
        apart, together = Device(spec), Device(spec)
        for part in parts:
            apart._charge(part, None)
        together._charge(fused, None)
        assert apart.kernel_count() - together.kernel_count() == width - 1
        assert apart.busy_seconds - together.busy_seconds == pytest.approx(
            (width - 1) * launch, rel=1e-9
        )


def test_same_name_other_latency_is_priced_on_its_own_spec():
    cost = K.axpy_kernel(8)
    fast, slow = Device(V100), Device(V100_SLOW_LAUNCH)
    assert slow._charge(cost, None) - fast._charge(cost, None) == pytest.approx(4e-6)


def test_replacing_a_devices_spec_reprices():
    device = Device(V100)
    cost = K.trsv_kernel(16)
    assert device._charge(cost, None) == cost.duration(V100)
    device.spec = A100
    assert device._charge(cost, None) == cost.duration(A100)
    device.spec = V100
    assert device._charge(cost, None) == cost.duration(V100)


def test_fault_overhead_never_leaks_into_the_table():
    cost = K.getrf_kernel(32)
    clean = cost.duration(V100)
    plan = FaultPlan(seed=3, scheduled=(ScheduledFault(site=SITE_KERNEL, at=0),))
    with injecting(plan) as injector:
        device = Device(V100)
        first = device._charge(cost, None)
        second = device._charge(cost, None)
        assert injector.counts()["injected"] == 1
    assert first > clean  # launch 1: wasted partial work + backoff on top
    assert second == clean  # launch 2: the entry was not mutated
    assert device._charge(cost, None) == clean
    assert device.metrics.count("faults.kernel_retries") == 1
    assert device.metrics.time("time.fault.kernel") == first - clean
    assert device.busy_seconds == first + clean + clean


class TestCaps:
    def test_builder_memo_is_bounded(self):
        assert K.axpy_kernel.cache_info().maxsize == K.BUILDER_MEMO_CAP
        for builder in BUILDER_ARGS:
            assert builder.cache_info().maxsize == K.BUILDER_MEMO_CAP
        for n in range(1, K.BUILDER_MEMO_CAP + 50):
            K.axpy_kernel(n)
        assert K.axpy_kernel.cache_info().currsize == K.BUILDER_MEMO_CAP
        # Evicted shapes are simply rebuilt, equal by value.
        assert K.axpy_kernel(1) == K.axpy_kernel.__wrapped__(1)

    def test_price_table_is_bounded(self, monkeypatch):
        monkeypatch.setattr(gpu, "PRICE_TABLE_CAP", 8)
        device = Device(V100)
        for n in range(1, 40):
            cost = K.axpy_kernel(n)
            assert device._charge(cost, None) == cost.duration(V100)
            assert len(device._prices) <= 8
        # Dropped entries are re-priced to the same number.
        assert device._charge(K.axpy_kernel(1), None) == K.axpy_kernel(1).duration(V100)
        assert device.metrics.count("kernels.axpy") == 40


class TestRejectedLaunchLeavesNoTrace:
    """``_charge(cost, stream_of_another_device)`` used to count the launch
    (and consume a fault draw) before raising ``StreamError``."""

    def test_counters_busy_time_and_energy_untouched(self):
        a, b = Device(V100), Device(V100)
        before = a.metrics.to_dict()
        with pytest.raises(StreamError):
            a._charge(K.axpy_kernel(8), b.create_stream())
        assert a.kernel_count() == 0 and a.metrics.count("kernels.axpy") == 0
        assert a.busy_seconds == 0.0 and a.energy_joules == 0.0
        assert a.clock.now == 0.0
        assert a.metrics.to_dict() == before
        assert b.kernel_count() == 0

    def test_fault_injector_is_not_consulted(self):
        # A third of all launches fault: any consumed draw shifts what follows.
        plan = FaultPlan(
            seed=11, rates={SITE_KERNEL: 0.3}, retry=RetryPolicy(max_attempts=12)
        )
        cost = K.gemv_kernel(16, 16)

        def launches(reject_first: bool):
            with injecting(plan) as injector:
                a, b = Device(V100), Device(V100)
                if reject_first:
                    with pytest.raises(StreamError):
                        a._charge(cost, b.create_stream())
                    assert SITE_KERNEL not in injector._occurrences
                    assert injector.counts()["injected"] == 0
                    assert not injector._rngs  # no stream was even seeded
                return [a._charge(cost, None) for _ in range(12)], injector.counts()

        durations, counts = launches(reject_first=True)
        assert (durations, counts) == launches(reject_first=False)
        assert counts["injected"] > 0 and len(set(durations)) > 1

    def test_public_kernels_still_reject_foreign_streams(self):
        a, b = Device(V100), Device(V100)
        x = a.upload(np.ones(4))
        with pytest.raises(StreamError):
            a._charge(K.axpy_kernel(4), b.create_stream())
        assert a.kernel_count() == 0
        np.testing.assert_array_equal(x.payload, np.ones(4))


class TestPriceKey:
    """The price table is keyed on ``KernelCost.key``, a plain tuple."""

    def test_costs_that_differ_in_any_hashed_field_have_other_keys(self):
        base = K.KernelCost("gemv", 100, 800, 10, sparse=False, serial_depth=0)
        changes = dict(
            name="axpy", flops=101, bytes_moved=801, parallel_elements=11,
            sparse=True, serial_depth=1,
        )
        for field_name, value in changes.items():
            other = dataclasses.replace(base, **{field_name: value})
            assert other.key != base.key, field_name

    def test_replaced_copies_share_the_key(self):
        for builder, args in BUILDER_ARGS.items():
            cost = builder(*args)
            assert fresh(cost).key == cost.key

    def test_parts_stay_out_of_the_hash_but_not_out_of_the_key(self):
        a, b = K.gemv_kernel(30, 20), K.gemv_kernel(20, 30)
        one, other = K.fused_kernel(a, b), K.fused_kernel(b, a)
        # Same name and totals: the documented hash leaves parts out ...
        assert hash(one) == hash(other)
        # ... while equality, and so the key, reads them.
        assert one != other and one.key != other.key
        device = Device(V100)
        assert device._charge(one, None) == one.duration(V100)
        assert device._charge(other, None) == other.duration(V100)


class TestInstalledLate:
    """An injector or tracer installed after the device is built is seen
    by its next launch (and a transfer), and so is its removal."""

    def test_injector(self):
        cost = K.getrf_kernel(32)
        device = Device(V100)
        device._charge(cost, None)
        plan = FaultPlan(seed=3, scheduled=(ScheduledFault(site=SITE_KERNEL, at=0),))
        with injecting(plan) as injector:
            assert device._charge(cost, None) > cost.duration(V100)
            assert injector.counts()["injected"] == 1
        assert device._charge(cost, None) == cost.duration(V100)
        assert device.metrics.count("faults.kernel_retries") == 1

    def test_tracer(self):
        from repro import obs

        device = Device(V100)
        device._charge(K.axpy_kernel(8), None)
        tracer = obs.enable()
        try:
            device._charge(K.axpy_kernel(8), None)
            device.upload(np.ones(4))
        finally:
            obs.disable()
        device._charge(K.axpy_kernel(8), None)
        device.upload(np.ones(4))
        assert [s.name for s in tracer.spans] == ["axpy", "h2d"]
