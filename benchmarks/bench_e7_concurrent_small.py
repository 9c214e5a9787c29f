"""E7 — §5.5: concurrent solution of many small LPs on one GPU.

Claims reproduced: "dozens of branch-and-cut nodes could be solved
simultaneously"; batching amortizes launch latency so throughput climbs
with batch size until the device saturates; the two §5.5 structuring
options — asynchronous streams vs a batched (MAGMA-style) routine — both
beat serial launches, with the batched routine ahead.
"""

from repro.device.gpu import Device
from repro.device.spec import V100
from repro.lp.batch_simplex import solve_lp_batch_on_device
from repro.problems.knapsack import generate_knapsack
from repro.reporting import render_series

BATCH_SIZES = [1, 4, 16, 64, 256]
NUM_ITEMS = 12  # small LP per node, as in §5.5


def make_batch(k):
    return [generate_knapsack(NUM_ITEMS, seed=1000 + i).relaxation() for i in range(k)]


class _Launches:
    """Stands in for a device: keeps the launch list a solve charges."""

    def __init__(self):
        self.costs = []

    def _charge(self, cost, stream):
        self.costs.append(cost)


def launch_list(lps):
    """The kernels ``solve_lp_batch_on_device`` charges for ``lps``, in order."""
    launches = _Launches()
    assert solve_lp_batch_on_device(lps, launches).all_ok
    return launches.costs


def run_sweep():
    # Every column replays launch lists the lockstep engine charges while
    # actually solving the LPs (numerics are exact).  Serial and streams
    # launch each LP's own list — its width-1 solve, the path it takes
    # inside the batch too — not the batch's longest.
    rows = []
    for k in BATCH_SIZES:
        lps = make_batch(k)
        own = [launch_list([lp]) for lp in lps]

        # (a) serial: one LP after another, synchronous launches.
        serial_dev = Device(V100)
        for costs in own:
            for cost in costs:
                serial_dev._charge(cost, None)
        serial_time = serial_dev.clock.now

        # (b) streams: each LP on its own stream, overlap to occupancy.
        stream_dev = Device(V100)
        for costs in own:
            stream = stream_dev.create_stream()
            for cost in costs:
                stream_dev._charge(cost, stream)
        stream_dev.synchronize()
        stream_time = stream_dev.clock.now

        # (c) batched: one lockstep kernel sequence for the whole batch.
        batched_dev = Device(V100)
        for cost in launch_list(lps):
            batched_dev._charge(cost, None)
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
