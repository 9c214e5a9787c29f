"""E4 — §5.1: rank-1 basis updates on a resident matrix.

Claims reproduced: (a) during the simplex's iterative re-solves "the GPU
linear algebra will be exercised … with rank-1 updates and resolving the
updated matrix repeatedly with *no data transfer* from host to device or
vice versa"; (b) the eta-update scheme beats refactorizing every
iteration, with the refactor cadence a tunable (the DESIGN.md ablation).

The product-form eta chain is the primal loop's, so the sweep runs that
loop from the slack basis: ``b_ub = |A| x0 + 1`` keeps ``x0`` feasible
and the slack basis primal feasible.
"""

import numpy as np

from repro.device.gpu import Device
from repro.device.spec import V100
from repro.lp.problem import LinearProgram
from repro.lp.result import LPStatus
from repro.lp.simplex import SimplexOptions, solve_standard_form
from repro.lp.warm import slack_start
from repro.reporting import format_seconds, render_table
from repro.strategies.engine import DeviceCostHook


def make_lp(n, m, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    x0 = rng.random(n)
    return LinearProgram(
        c=rng.standard_normal(n),
        a_ub=a,
        b_ub=np.abs(a) @ x0 + 1.0,
        ub=np.full(n, 10.0),
    )


def run_sweep():
    rows = []
    for m, n in ((24, 36), (48, 72), (80, 120)):
        sf = make_lp(n, m, seed=m).to_standard_form()
        for interval, label in ((1, "refactor every iter"), (16, "eta, refactor/16"), (64, "eta, refactor/64")):
            device = Device(V100)
            hook = DeviceCostHook(device, mode="dense")
            transfers_before = device.transfers.total_transfers
            res = solve_standard_form(
                sf, slack_start(sf).basis,
                options=SimplexOptions(refactor_interval=interval), hook=hook,
            )
            assert res.status is LPStatus.OPTIMAL
            iteration_transfers = device.transfers.total_transfers - transfers_before
            rows.append(
                (
                    f"{m}x{n}",
                    label,
                    res.iterations,
                    device.metrics.count("kernels.getrf"),
                    format_seconds(device.clock.now),
                    iteration_transfers,
                )
            )
    return rows


def test_e4_rank1_updates(benchmark, report):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    # Zero-transfer claim: no host<->device traffic inside the solve.
    assert all(r[5] == 0 for r in rows)
    # Eta updates beat refactor-every-iteration at every size (compare
    # the simulated times of rows paired per size).
    for i in range(0, len(rows), 3):
        every_iter = rows[i]
        eta64 = rows[i + 2]
        assert every_iter[3] > eta64[3]  # far more getrf kernels
    table = render_table(
        ["LP size", "basis scheme", "simplex iters", "getrf kernels", "sim time", "transfers"],
        rows,
        title="E4 — eta updates vs refactorization (resident basis, V100)",
    )
    report.add("E4_rank1_updates", table)
