"""E10 — §4.1/§4.3: batched factorization of many small matrices.

Claim reproduced: "packages that support batch matrix operation with a
large number of small matrices (i.e. MAGMA) are desirable to take the
full advantage of modern GPUs" — a single batched LU launch beats a loop
of small per-matrix launches, with the gain growing with batch size and
shrinking as matrices get big enough to fill the device alone.
"""

import numpy as np

from repro.device import kernels as K
from repro.device.gpu import Device
from repro.device.spec import V100
from repro.la.batch import batched_lu_factor, batched_lu_solve
from repro.la.dense import lu_factor, lu_solve
from repro.reporting import render_series, render_table


def run_sweep():
    rng = np.random.default_rng(0)
    rows = []
    for n in (8, 32, 128):
        for k in (1, 16, 64, 256):
            mats = rng.standard_normal((k, n, n)) + n * np.eye(n)
            rhs = rng.standard_normal((k, n))

            # The device is a meter: run the arithmetic through repro.la,
            # then launch the kernels that ran, in the order they ran.
            looped = Device(V100)
            x_looped = np.empty_like(rhs)
            for i in range(k):
                factors = lu_factor(mats[i])
                looped._charge(K.getrf_kernel(n), None)
                x_looped[i] = lu_solve(factors, rhs[i])
                looped._charge(K.trsv_kernel(n), None)
                looped._charge(K.trsv_kernel(n), None)
            looped_time = looped.clock.now

            batched = Device(V100)
            lu, piv = batched_lu_factor(mats)
            batched._charge(K.batched_getrf_kernel(k, n), None)
            x = batched_lu_solve(lu, piv, rhs)
            batched._charge(K.batched_trsv_kernel(k, n), None)
            batched._charge(K.batched_trsv_kernel(k, n), None)
            batched_time = batched.clock.now

            # Numerics are exact either way — verify against numpy once.
            expected = np.linalg.solve(mats, rhs[..., None])[..., 0]
            np.testing.assert_allclose(x, expected, atol=1e-6)
            np.testing.assert_allclose(x_looped, expected, atol=1e-6)
            rows.append((n, k, looped_time, batched_time, looped_time / batched_time))
    return rows


def test_e10_batched_factorization(benchmark, report):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    # Speedup grows with batch size at every matrix size.
    by_n = {}
    for n, k, _lo, _ba, speedup in rows:
        by_n.setdefault(n, []).append(speedup)
    for n, speedups in by_n.items():
        assert speedups[-1] > speedups[0], f"no batching gain at n={n}"
        assert speedups[-1] > 5.0
    table = render_table(
        ["n", "batch k", "looped sim time", "batched sim time", "speedup"],
        [(n, k, lo, ba, round(s, 1)) for n, k, lo, ba, s in rows],
        title="E10 — batched vs looped LU factor+solve (V100)",
    )
    ks = [1, 16, 64, 256]
    series = render_series(
        "batch",
        ks,
        [
            (f"speedup n={n}", [round(s, 1) for s in by_n[n]])
            for n in sorted(by_n)
        ],
    )
    report.add("E10_batched_factorization", table + "\n\n" + series)
