"""Lockstep batched PDHG: a whole B&B frontier per matvec sweep.

Paper §5.5 argues the way to keep a GPU busy on MIP is to advance many
node LPs at once; "Batched First-Order Methods for Parallel LP Solving
in MIP" shows first-order methods make that *trivially* fusable, because
every PDHG iteration of every member is the same two matvecs.  This
module stacks k same-shape LPs into ``(k, n)`` / ``(k, m)`` iterate
blocks and advances them in lockstep:

- **shared-K fast path**: sibling node LPs from branch-and-bound share
  the constraint matrix and differ only in bounds (and possibly rhs), so
  the whole sweep collapses to two dense GEMMs — ``Y @ K`` and
  ``X̄ @ Kᵀ`` — one fused matvec workload for the entire frontier;
- heterogeneous batches fall back to batched matvecs (einsum), the
  batched-GEMV shape a MAGMA-style library would run;
- members terminate (eps-KKT), are declared infeasible/unbounded by the
  same two-consecutive-checks Farkas-ray test as the single solver, or
  hit the iteration limit — each is frozen by masking while the rest of
  the batch keeps sweeping, mirroring :mod:`repro.lp.batch_simplex`;
- restarts and primal-weight rebalancing are per member: each member
  keeps its own running average, restart anchor, and ω.

``solve_lp_pdhg_batch_on_device`` prices the sweep on a simulated
device: the shared-K path charges plain GEMMs, the heterogeneous path
batched GEMMs, plus the elementwise update traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro import obs
from repro.errors import LPError, ShapeError
from repro.guard import budget as guard_budget
from repro.lp.pdhg import (
    NULL_PDHG_HOOK,
    PDHGCostHook,
    PDHGOptions,
    PDHGResult,
    PDHGStats,
    _check_dual_ray,
    _check_primal_ray,
    _kkt,
    _score,
    _solve_box_only,
    power_iteration_norm,
    ruiz_equilibrate,
    saddle_from_lp,
    solve_saddle_pdhg,
)
from repro.lp.problem import LinearProgram
from repro.lp.result import LPStatus


@dataclass
class BatchPDHGResult:
    """Per-member outcomes of a batched PDHG solve."""

    statuses: List[LPStatus]
    #: Original (maximization) objectives; NaN unless optimal.
    objectives: np.ndarray
    #: (k, n) primal solutions in the original variable space.
    x: np.ndarray
    #: Tolerance-padded upper bounds (B&B-safe); −inf for infeasible
    #: members, +inf when no usable dual information exists.
    bounds: np.ndarray
    #: Lockstep sweeps executed (shared across the batch).
    iterations: int
    #: Sweeps each member was live for.
    member_iterations: np.ndarray
    #: Restarts summed over members.
    restarts: int
    #: Full per-member detail.
    results: List[PDHGResult] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        """True when every member reached an eps-KKT point."""
        return all(s is LPStatus.OPTIMAL for s in self.statuses)


def batch_compatible(lps: List[LinearProgram]) -> bool:
    """True when the members can advance in one lockstep batch.

    PDHG handles bounds by projection and equality rows natively, so the
    only precondition is shape agreement: same n and the same eq/ub row
    counts.  (Compare :func:`repro.lp.batch_simplex.lockstep_compatible`,
    which also needs ``lb == 0``, ``b ≥ 0``, and a shared finite-ub
    pattern — the batched-PDHG batch is strictly more inclusive.)
    """
    if not lps:
        return False
    first = lps[0]
    return all(
        lp.n == first.n
        and lp.num_eq_rows == first.num_eq_rows
        and lp.num_ub_rows == first.num_ub_rows
        for lp in lps
    )


@dataclass
class _Member:
    """Restart-span bookkeeping for one batch member."""

    score_at_restart: float = np.inf
    last_candidate_score: float = np.inf
    span_start: int = 0
    ray_streak_infeasible: int = 0
    ray_streak_unbounded: int = 0
    stats: PDHGStats = field(default_factory=PDHGStats)


def solve_lp_pdhg_batch(
    lps: List[LinearProgram],
    options: Optional[PDHGOptions] = None,
    hook: PDHGCostHook = NULL_PDHG_HOOK,
) -> BatchPDHGResult:
    """Advance k same-shape LPs by lockstep restarted PDHG."""
    if not lps:
        raise LPError("empty LP batch")
    if not batch_compatible(lps):
        raise ShapeError("all batch members must share (n, eq rows, ub rows)")
    options = options or PDHGOptions()

    saddles = [saddle_from_lp(lp) for lp in lps]
    k = len(saddles)
    m, n = saddles[0].m, saddles[0].n
    num_eq = saddles[0].num_eq
    max_iterations = options.max_iterations
    if max_iterations is None:
        max_iterations = 4000 + 200 * (m + n)

    results: List[Optional[PDHGResult]] = [None] * k
    member_iterations = np.zeros(k, dtype=int)

    if m == 0 or all(not np.any(s.k) for s in saddles):
        # No (effective) rows anywhere: each member is a box LP with a
        # closed form — no sweeping to fuse.
        for i, s in enumerate(saddles):
            results[i] = solve_saddle_pdhg(s, options, hook)
        return _collect(results, member_iterations, 0, n)

    with obs.span("lp.pdhg_batch", category="lp", batch=k, m=m, n=n) as sp:
        shared = all(np.array_equal(saddles[0].k, s.k) for s in saddles[1:])

        # Conditioning: Ruiz-equilibrate the shared matrix (sibling node
        # LPs).  Heterogeneous batches run unscaled — members from the
        # same generator are already commensurate, and per-member diagonal
        # scaling would forfeit the fused-sweep layout.
        if shared:
            d_row, d_col = ruiz_equilibrate(saddles[0].k, options.scaling_iterations)
        else:
            d_row, d_col = np.ones(m), np.ones(n)
        ks_shared = saddles[0].k * d_row[:, None] * d_col[None, :]
        if not shared:
            ks_all = np.stack([s.k for s in saddles])

        qs = np.stack([s.q * d_row for s in saddles])            # (k, m)
        cs = np.stack([s.c_hat * d_col for s in saddles])        # (k, n)
        lbs = np.stack([s.lb / d_col for s in saddles])
        ubs = np.stack([s.ub / d_col for s in saddles])

        if shared:
            norm_k = power_iteration_norm(ks_shared, options.power_iterations, hook)
            norms = np.full(k, norm_k if norm_k > 0 else 1.0)
        else:
            norms = np.empty(k)
            for i in range(k):
                nk = power_iteration_norm(
                    saddles[i].k, options.power_iterations, hook
                )
                norms[i] = nk if nk > 0 else 1.0
        eta = options.step_size_scale / norms                    # (k,)

        c_norms = np.linalg.norm(cs, axis=1)
        q_norms = np.linalg.norm(qs, axis=1)
        omega = np.where(
            (c_norms > 1e-12) & (q_norms > 1e-12), c_norms / np.maximum(q_norms, 1e-12), 1.0
        )
        tau = eta / omega
        sigma = eta * omega

        x = np.clip(np.zeros((k, n)), lbs, ubs)
        y = np.zeros((k, m))
        x_anchor, y_anchor = x.copy(), y.copy()
        x_prev_anchor, y_prev_anchor = x.copy(), y.copy()
        sum_x, sum_y = np.zeros((k, n)), np.zeros((k, m))
        navg = np.zeros(k, dtype=int)

        active = np.ones(k, dtype=bool)
        for i, s in enumerate(saddles):
            if np.any(s.lb > s.ub):
                results[i] = PDHGResult(status=LPStatus.INFEASIBLE)
                active[i] = False
        members = [_Member() for _ in range(k)]
        eps = options.tolerance
        sweeps = 0

        def unscale(i: int):
            return x[i] * d_col, y[i] * d_row

        def finish(i: int, st: LPStatus, pr, dr, gp, p, d) -> None:
            xo, yo = unscale(i)
            s = saddles[i]
            members[i].stats.iterations = int(member_iterations[i])
            results[i] = PDHGResult(
                status=st,
                objective=-p,
                x=xo,
                y=yo,
                reduced_costs=s.c_hat - s.k.T @ yo,
                primal_residual=pr,
                dual_residual=dr,
                gap=gp,
                primal_objective_min=p,
                dual_objective_min=d,
                stats=members[i].stats,
            )
            active[i] = False

        guard_ctx = guard_budget.active()
        timed_out = False

        while active.any() and sweeps < max_iterations:
            if guard_ctx is not None and guard_ctx.deadline_hit():
                timed_out = True
                break
            steps = min(options.check_every, max_iterations - sweeps)
            act_col = active[:, None]
            for _ in range(steps):
                hook.on_iteration(int(active.sum()), m, n)
                if shared:
                    kt_y = y @ ks_shared                          # (k, n)
                else:
                    kt_y = np.einsum("kmn,km->kn", ks_all, y)
                x_new = np.clip(x - tau[:, None] * (cs - kt_y), lbs, ubs)
                if shared:
                    k_xbar = (2.0 * x_new - x) @ ks_shared.T      # (k, m)
                else:
                    k_xbar = np.einsum("kmn,kn->km", ks_all, 2.0 * x_new - x)
                y_new = y + sigma[:, None] * (qs - k_xbar)
                if num_eq < m:
                    y_new[:, num_eq:] = np.maximum(y_new[:, num_eq:], 0.0)
                x = np.where(act_col, x_new, x)
                y = np.where(active[:, None], y_new, y)
                sum_x[active] += x[active]
                sum_y[active] += y[active]
                navg[active] += 1
                member_iterations[active] += 1
                sweeps += 1

            hook.on_check(int(active.sum()), m, n)
            for i in np.nonzero(active)[0]:
                s = saddles[i]
                mem = members[i]
                if not (np.all(np.isfinite(x[i])) and np.all(np.isfinite(y[i]))):
                    # Poisoned member: freeze it as NUMERICAL so the
                    # rest of the lockstep batch keeps converging.
                    mem.stats.iterations = int(member_iterations[i])
                    results[i] = PDHGResult(
                        status=LPStatus.NUMERICAL, stats=mem.stats
                    )
                    active[i] = False
                    if guard_ctx is not None:
                        guard_ctx.note(
                            "watchdog",
                            engine="pdhg_batch",
                            signal="nonfinite",
                            member=int(i),
                        )
                    continue
                candidates = [(x[i], y[i])]
                if navg[i] > 1:
                    candidates.append((sum_x[i] / navg[i], sum_y[i] / navg[i]))
                best = None
                for xv, yv in candidates:
                    xo, yo = xv * d_col, yv * d_row
                    pr, dr, gp, p, d = _kkt(s, xo, yo)
                    mem.stats.kkt_checks += 1
                    sc = _score(pr, dr, gp)
                    if best is None or sc < best[0]:
                        best = (sc, xv, yv, pr, dr, gp, p, d)
                score, xv, yv, pr, dr, gp, p, d = best

                if pr <= eps and dr <= eps and gp <= eps:
                    x[i], y[i] = xv, yv
                    finish(i, LPStatus.OPTIMAL, pr, dr, gp, p, d)
                    continue

                if options.detect_rays:
                    dxo = (x[i] - x_anchor[i]) * d_col
                    dyo = (y[i] - y_anchor[i]) * d_row
                    if _check_dual_ray(s, dyo, options.ray_tolerance):
                        mem.ray_streak_infeasible += 1
                    else:
                        mem.ray_streak_infeasible = 0
                    if _check_primal_ray(s, dxo, options.ray_tolerance):
                        mem.ray_streak_unbounded += 1
                    else:
                        mem.ray_streak_unbounded = 0
                    if mem.ray_streak_infeasible >= 2:
                        members[i].stats.iterations = int(member_iterations[i])
                        results[i] = PDHGResult(
                            status=LPStatus.INFEASIBLE, stats=mem.stats
                        )
                        active[i] = False
                        continue
                    if mem.ray_streak_unbounded >= 2:
                        members[i].stats.iterations = int(member_iterations[i])
                        results[i] = PDHGResult(
                            status=LPStatus.UNBOUNDED, stats=mem.stats
                        )
                        active[i] = False
                        continue

                span_len = int(member_iterations[i]) - mem.span_start
                do_restart = (
                    score <= options.restart_sufficient * mem.score_at_restart
                    or (
                        score <= options.restart_necessary * mem.score_at_restart
                        and score > mem.last_candidate_score
                    )
                    or span_len
                    >= options.artificial_restart * max(int(member_iterations[i]), 1)
                )
                mem.last_candidate_score = score
                if do_restart:
                    mem.stats.restarts += 1
                    x[i], y[i] = xv.copy(), yv.copy()
                    dx_norm = np.linalg.norm(x[i] - x_prev_anchor[i])
                    dy_norm = np.linalg.norm(y[i] - y_prev_anchor[i])
                    if dx_norm > 1e-12 and dy_norm > 1e-12:
                        theta = options.primal_weight_smoothing
                        omega[i] = np.exp(
                            theta * np.log(dy_norm / dx_norm)
                            + (1.0 - theta) * np.log(omega[i])
                        )
                        tau[i] = eta[i] / omega[i]
                        sigma[i] = eta[i] * omega[i]
                    x_prev_anchor[i], y_prev_anchor[i] = x[i].copy(), y[i].copy()
                    x_anchor[i], y_anchor[i] = x[i].copy(), y[i].copy()
                    sum_x[i] = 0.0
                    sum_y[i] = 0.0
                    navg[i] = 0
                    mem.span_start = int(member_iterations[i])
                    mem.score_at_restart = score
                    mem.last_candidate_score = np.inf

        # Members that never terminated: report the iterate as-is.
        tail_status = LPStatus.TIME_LIMIT if timed_out else LPStatus.ITERATION_LIMIT
        for i in np.nonzero(active)[0]:
            xo, yo = unscale(i)
            pr, dr, gp, p, d = _kkt(saddles[i], xo, yo)
            members[i].stats.kkt_checks += 1
            finish(i, tail_status, pr, dr, gp, p, d)

        out = _collect(results, member_iterations, sweeps, n)
        sp.set(
            sweeps=sweeps,
            restarts=out.restarts,
            optimal=sum(s is LPStatus.OPTIMAL for s in out.statuses),
        )
        return out


def _collect(
    results: List[Optional[PDHGResult]],
    member_iterations: np.ndarray,
    sweeps: int,
    n: int,
) -> BatchPDHGResult:
    k = len(results)
    statuses = []
    objectives = np.full(k, np.nan)
    x = np.zeros((k, n))
    bounds = np.full(k, np.inf)
    restarts = 0
    for i, res in enumerate(results):
        assert res is not None
        statuses.append(res.status)
        restarts += res.stats.restarts
        if res.status is LPStatus.INFEASIBLE:
            bounds[i] = -np.inf
        elif res.x is not None:
            x[i] = res.x
            bounds[i] = res.upper_bound()
            if res.status is LPStatus.OPTIMAL:
                objectives[i] = res.objective
    return BatchPDHGResult(
        statuses=statuses,
        objectives=objectives,
        x=x,
        bounds=bounds,
        iterations=sweeps,
        member_iterations=member_iterations,
        restarts=restarts,
        results=[r for r in results if r is not None],
    )


def solve_lp_pdhg_batch_on_device(
    lps: List[LinearProgram],
    device,
    stream=None,
    options: Optional[PDHGOptions] = None,
) -> BatchPDHGResult:
    """Solve a PDHG batch charging the fused kernel stream to ``device``.

    Per sweep the shared-K path launches two plain GEMMs (the whole
    frontier's matvecs fused, ``(k×m)·(m×n)`` and back) plus the
    elementwise update kernels; a heterogeneous batch launches batched
    GEMVs instead.  KKT checks price a matvec pair plus reductions.
    Compare :func:`repro.lp.batch_simplex.solve_lp_batch_on_device`,
    which pays ``serial_depth=m`` triangular solves per pivot — the sync
    cost PDHG exists to avoid.
    """
    from repro.device import kernels as K

    shared = bool(lps) and all(
        lp.num_eq_rows == lps[0].num_eq_rows
        and np.array_equal(
            lp.a_ub if lp.a_ub is not None else np.zeros(0),
            lps[0].a_ub if lps[0].a_ub is not None else np.zeros(0),
        )
        and np.array_equal(
            lp.a_eq if lp.a_eq is not None else np.zeros(0),
            lps[0].a_eq if lps[0].a_eq is not None else np.zeros(0),
        )
        for lp in lps[1:]
    )

    class _DeviceHook(PDHGCostHook):
        # Every charge is a pure function of (k, m, n) and only the
        # active width k varies within one solve: build the kernel
        # costs once per width, as (setup, iteration, check) sequences.
        def __init__(self) -> None:
            self._costs = {}

        def _charge(self, which: int, k: int, m: int, n: int) -> None:
            costs = self._costs.get(k)
            if costs is None:
                if shared:
                    pair = (K.gemm_kernel(k, n, m), K.gemm_kernel(k, m, n))
                else:
                    pair = (
                        K.batched_gemm_kernel(k, 1, n, m),
                        K.batched_gemm_kernel(k, 1, m, n),
                    )
                costs = self._costs[k] = (
                    pair,
                    pair + (K.axpy_kernel(k * n), K.axpy_kernel(k * m)),
                    pair + (K.dot_kernel(k * max(m, n)),),
                )
            for cost in costs[which]:
                device._charge(cost, stream)

        def on_setup(self, k: int, m: int, n: int) -> None:
            self._charge(0, k, m, n)

        def on_iteration(self, k: int, m: int, n: int) -> None:
            self._charge(1, k, m, n)

        def on_check(self, k: int, m: int, n: int) -> None:
            self._charge(2, k, m, n)

    return solve_lp_pdhg_batch(lps, options=options, hook=_DeviceHook())
