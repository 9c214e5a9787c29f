"""E12 — §2.3: interior-point vs simplex as the GPU LP engine.

Claim reproduced: "Linear programming solvers using an interior point
method is the preferred method for solving sparse problems … Linear
programming problems using dense matrices are well suited for the GPUs"
(simplex variants).  The IPM's per-iteration work is one normal-equations
Cholesky — few, fat, regular kernels; the simplex issues thousands of
thin ones.  On the device model this shows as: IPM needs ~10-20
iterations regardless of size while the simplex iteration count grows,
so the IPM's device time scales far better on large dense LPs.
"""

import numpy as np

from repro.device import kernels as K
from repro.device.gpu import Device
from repro.device.spec import V100
from repro.lp.interior_point import interior_point_solve
from repro.lp.problem import LinearProgram
from repro.lp.result import LPStatus
from repro.lp.simplex import SimplexOptions
from repro.lp.warm import solve_lp
from repro.reporting import format_seconds, render_table
from repro.strategies.engine import DeviceCostHook


def make_lp(m, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    x0 = rng.random(n)
    return LinearProgram(
        c=rng.standard_normal(n),
        a_ub=a,
        b_ub=a @ x0 + 1.0,
        ub=np.full(n, 10.0),
    )


def charge_ipm(device, m_std, n_std, iterations):
    """The IPM kernel stream: normal equations + matvecs per iteration."""
    for _ in range(iterations):
        device._charge(K.gemm_kernel(m_std, m_std, n_std), None)  # A D Aᵀ
        device._charge(K.potrf_kernel(m_std), None)
        device._charge(K.trsv_kernel(m_std), None)
        device._charge(K.trsv_kernel(m_std), None)
        for _ in range(4):  # residuals / directions
            device._charge(K.gemv_kernel(m_std, n_std), None)


def run_comparison():
    rows = []
    for m, n in ((16, 24), (32, 48), (64, 96)):
        lp = make_lp(m, n, seed=m)
        sf = lp.to_standard_form()

        simplex_dev = Device(V100)
        simplex_res = solve_lp(lp, hook=DeviceCostHook(simplex_dev, mode="dense"))
        assert simplex_res.status is LPStatus.OPTIMAL

        ipm_res = interior_point_solve(sf)
        assert ipm_res.status is LPStatus.OPTIMAL
        assert abs(ipm_res.objective - simplex_res.objective) < 1e-4 * (
            1 + abs(simplex_res.objective)
        )
        ipm_dev = Device(V100)
        # Priced at the system it factors: each finite bound is a row.
        posed = sf.with_bounds_as_rows()
        charge_ipm(ipm_dev, posed.m, posed.n, ipm_res.iterations)

        rows.append(
            (
                f"{m}x{n}",
                simplex_res.iterations,
                format_seconds(simplex_dev.clock.now),
                ipm_res.iterations,
                format_seconds(ipm_dev.clock.now),
                round(simplex_dev.clock.now / ipm_dev.clock.now, 2),
            )
        )
    return rows


def dual_pivot_seconds(m, n_std):
    """One pivot of the dual loop on an ``m × n_std`` standard form, as
    its :class:`DeviceCostHook` prices it: the ``Aᵀρ`` GEMV with the
    ratio pass in its epilogue, the breakpoint scan, the ftran GEMV, the
    x_B / d / y vector pass and the GER update, plus its share of one
    ``getrf`` + ``getri`` per refactor interval."""
    device = Device(V100)
    hook = DeviceCostHook(device, mode="dense")
    hook.on_invert(m)
    refactor = device.clock.now
    hook.on_pricing(m, n_std, n_std)
    hook.on_ratio_test(n_std)
    hook.on_inverse_apply(m, 0)
    hook.on_vector_pass(m, n_std, m)
    hook.on_inverse_update(m)
    return device.clock.now - refactor + refactor / SimplexOptions().refactor_interval


def analytic_large_scale(measured):
    """At MIPLIB scale the comparison is priced analytically.

    The simplex takes as many dual-loop pivots per ``m + n`` as the
    largest measured row did; returns that row's name, the ratio and
    the table rows.
    """
    name, pivots = measured[-1][0], measured[-1][1]
    m0, n0 = (int(k) for k in name.split("x"))
    ratio = pivots / (m0 + n0)
    rows = []
    for m in (1024, 4096, 16384):
        n = 2 * m
        iters_simplex = int(round(ratio * (m + n)))
        # Every bound is finite, so the form is the m rows plus m slacks.
        simplex_time = iters_simplex * dual_pivot_seconds(m, n + m)
        # IPM: ~15 iterations of normal equations.
        ipm_time = 15 * (
            K.gemm_kernel(m, m, n).duration(V100)
            + K.potrf_kernel(m).duration(V100)
            + 2 * K.trsv_kernel(m).duration(V100)
            + 4 * K.gemv_kernel(m, n).duration(V100)
        )
        rows.append(
            (
                f"{m}x{n}",
                iters_simplex,
                format_seconds(simplex_time),
                format_seconds(ipm_time),
                round(simplex_time / ipm_time, 2),
            )
        )
    return name, ratio, rows


def test_e12_ipm_vs_simplex(benchmark, report):
    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    measured = render_table(
        ["LP", "simplex iters", "simplex time", "IPM iters", "IPM time", "ratio"],
        rows,
        title="E12 — measured: simplex vs interior point on the V100 model",
    )
    name, ratio, large = analytic_large_scale(rows)
    analytic = render_table(
        ["LP", "dual pivots", "simplex time", "IPM time", "simplex/IPM"],
        large,
        title=(
            "E12b — analytic at MIPLIB scale: dual-loop pivots at "
            f"{ratio:.4g} (m + n), the {name} row's ratio"
        ),
    )
    # IPM iteration counts stay flat while simplex counts grow.
    assert rows[-1][3] <= 3 * rows[0][3]
    assert rows[-1][1] > 3 * rows[0][1]
    report.add("E12_ipm_vs_simplex", measured + "\n\n" + analytic)
