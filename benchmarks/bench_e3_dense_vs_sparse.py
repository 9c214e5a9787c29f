"""E3 — §4/§5.4: dense vs sparse linear algebra across density.

Claim reproduced: "dense linear algebra is much more efficient on GPUs,
and sparse matrix computations are generally not as efficient"; sparse
work belongs on the CPU (strategy 3), and the runtime "super-MIP"
chooser must pick per input.  The experiment solves the *same* LP
through the dense-GPU, sparse-GPU and sparse-CPU metered paths and also
prints the analytic per-iteration estimates at scale, where the
dense-GPU path overtakes.

The measured sweep meters the primal loop (its LU, triangular solves and
eta chain are what the sparse paths price), run from the slack basis:
``b_ub = |A| x0 + 0.5`` keeps ``x0`` feasible and the slack basis
primal feasible.
"""

import numpy as np

from repro.device.gpu import Device
from repro.device.spec import CPU_HOST, V100
from repro.lp.problem import LinearProgram
from repro.lp.result import LPStatus
from repro.lp.simplex import solve_standard_form
from repro.lp.warm import slack_start
from repro.reporting import format_seconds, render_series, render_table
from repro.strategies.chooser import estimate_paths
from repro.strategies.engine import DeviceCostHook


def make_lp(n, m, density, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    if density < 1.0:
        a[rng.random((m, n)) > density] = 0.0
    x0 = rng.random(n) * 2
    return LinearProgram(
        c=rng.standard_normal(n),
        a_ub=a,
        b_ub=np.abs(a) @ x0 + 0.5,
        ub=np.full(n, 10.0),
    )


def solve_on_path(lp, mode, spec, density):
    device = Device(spec)
    hook = DeviceCostHook(device, mode=mode, density=density)
    sf = lp.to_standard_form()
    res = solve_standard_form(sf, slack_start(sf).basis, hook=hook)
    assert res.status is LPStatus.OPTIMAL
    return device.clock.now


def run_measured_sweep():
    rows = []
    densities = [0.02, 0.1, 0.3, 1.0]
    for density in densities:
        lp = make_lp(96, 64, density, seed=int(density * 100))
        dense_gpu = solve_on_path(lp, "dense", V100, density)
        sparse_gpu = solve_on_path(lp, "sparse", V100, density)
        sparse_cpu = solve_on_path(lp, "sparse", CPU_HOST, density)
        rows.append((density, dense_gpu, sparse_gpu, sparse_cpu))
    return rows


def analytic_scale_table():
    rows = []
    for m, n in ((512, 1024), (2048, 4096), (8192, 16384)):
        for density in (0.01, 0.3, 1.0):
            est = estimate_paths(m, n, density)
            rows.append(
                (
                    f"{m}x{n}",
                    density,
                    format_seconds(est.dense_gpu_seconds),
                    format_seconds(est.sparse_gpu_seconds),
                    format_seconds(est.sparse_cpu_seconds),
                    format_seconds(est.dense_cpu_seconds),
                    est.choice.value,
                )
            )
    return rows


def test_e3_dense_vs_sparse(benchmark, report):
    rows = benchmark.pedantic(run_measured_sweep, rounds=1, iterations=1)
    densities = [r[0] for r in rows]
    series = render_series(
        "density",
        densities,
        [
            ("dense-GPU s", [r[1] for r in rows]),
            ("sparse-GPU s", [r[2] for r in rows]),
            ("sparse-CPU s", [r[3] for r in rows]),
        ],
        title="E3 — metered LP solve time vs matrix density (96x64 LP)",
    )
    # The paper's asymmetry: sparse on GPU is the worst path everywhere.
    for _, dense_gpu, sparse_gpu, _cpu in rows:
        assert sparse_gpu > dense_gpu
    table = render_table(
        ["shape", "density", "dense-GPU", "sparse-GPU", "sparse-CPU", "dense-CPU", "chooser"],
        analytic_scale_table(),
        title="E3b — per-iteration estimates at scale (crossover to dense-GPU)",
    )
    report.add("E3_dense_vs_sparse", series + "\n\n" + table)
