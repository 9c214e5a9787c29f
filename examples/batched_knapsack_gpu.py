"""§5.5 in action: solving dozens of node LPs concurrently on one GPU.

Sibling branch-and-bound nodes of small MIPs have tiny LP relaxations;
one at a time they cannot feed a GPU.  This example solves a batch of
knapsack relaxations three ways on the simulated V100 — serial launches,
concurrent streams, and a MAGMA-style lockstep batch — and prints the
throughput each achieves.

Run:  python examples/batched_knapsack_gpu.py
"""

from repro.device import Device, V100
from repro.device import kernels as K
from repro.lp import solve_lp_batch
from repro.problems import generate_knapsack
from repro.reporting import format_seconds, render_table

BATCH = 64
ITEMS = 12

lps = [generate_knapsack(ITEMS, seed=i).relaxation() for i in range(BATCH)]
batch_result = solve_lp_batch(lps)
assert batch_result.all_ok
iters = batch_result.iterations
m = lps[0].num_ub_rows  # basis dimension: the 0 ≤ x ≤ 1 box is not rows
n = ITEMS + m
print(f"{BATCH} knapsack relaxations, lockstep simplex converged in {iters} iterations\n")


def charge_single(device, stream=None):
    device._charge(K.getrf_kernel(m), stream)
    for _ in range(iters):
        device._charge(K.trsv_kernel(m), stream)
        device._charge(K.trsv_kernel(m), stream)
        device._charge(K.gemv_kernel(n, m), stream)


serial = Device(V100)
for _ in range(BATCH):
    charge_single(serial)

streams = Device(V100)
for _ in range(BATCH):
    charge_single(streams, stream=streams.create_stream())
streams.synchronize()

batched = Device(V100)
batched._charge(K.batched_getrf_kernel(BATCH, m), None)
for _ in range(iters):
    batched._charge(K.batched_trsv_kernel(BATCH, m), None)
    batched._charge(K.batched_trsv_kernel(BATCH, m), None)
    batched._charge(K.batched_gemm_kernel(BATCH, 1, n, m), None)

rows = []
for name, device in (("serial", serial), ("streams", streams), ("batched", batched)):
    elapsed = device.clock.now
    rows.append(
        (
            name,
            format_seconds(elapsed),
            f"{BATCH / elapsed:,.0f}",
            device.kernel_count(),
        )
    )
print(render_table(["scheme", "simulated time", "LPs per second", "kernel launches"], rows))

serial_t = serial.clock.now
assert streams.clock.now < serial_t
assert batched.clock.now < streams.clock.now
print("\nbatched > streams > serial — exactly the §5.5 ordering.")
