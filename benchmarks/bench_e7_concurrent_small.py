"""E7 — §5.5: concurrent solution of many small LPs on one GPU.

Claims reproduced: "dozens of branch-and-cut nodes could be solved
simultaneously"; batching amortizes launch latency so throughput climbs
with batch size until the device saturates; the two §5.5 structuring
options — asynchronous streams vs a batched (MAGMA-style) routine — both
beat serial launches, with the batched routine ahead.
"""

import numpy as np

from repro.device import kernels as K
from repro.device.gpu import Device
from repro.device.spec import V100
from repro.lp.batch_simplex import solve_lp_batch
from repro.problems.knapsack import generate_knapsack
from repro.reporting import render_series

BATCH_SIZES = [1, 4, 16, 64, 256]
NUM_ITEMS = 12  # small LP per node, as in §5.5


def make_batch(k):
    return [generate_knapsack(NUM_ITEMS, seed=1000 + i).relaxation() for i in range(k)]


def _single_lp_kernel_stream(device, m, n, iters, stream=None):
    """Charge one small LP's simplex kernel sequence."""
    device._charge(K.getrf_kernel(m), stream)
    for _ in range(iters):
        device._charge(K.trsv_kernel(m), stream)
        device._charge(K.trsv_kernel(m), stream)
        device._charge(K.gemv_kernel(n, m), stream)


def run_sweep():
    # First, measure the true lockstep iteration count per batch size by
    # actually solving the LPs (numerics are exact).
    rows = []
    for k in BATCH_SIZES:
        lps = make_batch(k)
        m = lps[0].num_ub_rows  # basis dimension: the box is not rows
        n = NUM_ITEMS + m

        # (a) serial: one LP after another, synchronous launches.
        serial_dev = Device(V100)
        batch_res = solve_lp_batch(lps)
        assert batch_res.all_ok
        iters = max(1, batch_res.iterations)
        for _ in range(k):
            _single_lp_kernel_stream(serial_dev, m, n, iters)
        serial_time = serial_dev.clock.now

        # (b) streams: each LP on its own stream, overlap to occupancy.
        stream_dev = Device(V100)
        for _ in range(k):
            stream = stream_dev.create_stream()
            _single_lp_kernel_stream(stream_dev, m, n, iters, stream=stream)
        stream_dev.synchronize()
        stream_time = stream_dev.clock.now

        # (c) batched: one lockstep kernel sequence for the whole batch.
        batched_dev = Device(V100)
        batched_dev._charge(K.batched_getrf_kernel(k, m), None)
        for _ in range(iters):
            batched_dev._charge(K.batched_trsv_kernel(k, m), None)
            batched_dev._charge(K.batched_trsv_kernel(k, m), None)
            batched_dev._charge(K.batched_gemm_kernel(k, 1, n, m), None)
        batched_time = batched_dev.clock.now

        rows.append(
            (
                k,
                k / serial_time,
                k / stream_time,
                k / batched_time,
            )
        )
    return rows


def test_e7_concurrent_small(benchmark, report):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    ks = [r[0] for r in rows]
    series = render_series(
        "batch",
        ks,
        [
            ("serial LP/s", [round(r[1]) for r in rows]),
            ("streams LP/s", [round(r[2]) for r in rows]),
            ("batched LP/s", [round(r[3]) for r in rows]),
        ],
        title="E7 — small-LP throughput vs concurrency (V100, knapsack-12 relaxations)",
    )
    last = rows[-1]
    # Both concurrency schemes beat serial; batched leads at scale.
    assert last[2] > 2 * last[1]
    assert last[3] > last[2]
    # Serial throughput is flat; batched grows with k.
    assert rows[-1][3] > 5 * rows[0][3]
    report.add("E7_concurrent_small", series)
