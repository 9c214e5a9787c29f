"""Batched PDHG entry points: a whole B&B frontier per matvec sweep.

Paper §5.5 argues the way to keep a GPU busy on MIP is to advance many
node LPs at once; "Batched First-Order Methods for Parallel LP Solving
in MIP" shows first-order methods make that *trivially* fusable, because
every PDHG iteration of every member is the same two matvecs — with a
step size per LP, which is what the engine's per-member step ceiling
and acceptance test provide.  The loop that does it is
:func:`repro.lp.pdhg._lockstep_pdhg` — the same one a single LP runs at
width 1.  This module is its many-LP front:

- :func:`batch_compatible` / :func:`solve_lp_pdhg_batch` take k
  same-shape :class:`LinearProgram`s and gather the per-member outcomes
  into a :class:`BatchPDHGResult` (B&B-safe padded bounds included);
- :class:`PdhgDeviceHook` prices the sweep on a simulated device from
  the layout the engine chose — GEMVs for one LP, plain GEMMs for a
  shared K, batched GEMVs for a stack — with the elementwise updates
  and the step limit's reduction in the products' epilogues: three
  launches per attempted step (the accept mask and the step ceilings
  stay on the device — no per-sweep transfer); each check adds a few
  setup pairs for the live members' face norms.  Every engine's
  first-order node rounds (``pdhg_hook``; each round is one
  :func:`solve_lp_pdhg_batch` call from
  :meth:`repro.mip.solver.ExecutionEngine._pdhg_round`) price through
  it too, and :func:`solve_lp_pdhg_batch_on_device` is the batch's
  device front.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from repro import obs
from repro.device import kernels as K
from repro.errors import LPError, ShapeError
from repro.lp.pdhg import (
    NULL_PDHG_HOOK,
    PDHGCostHook,
    PDHGOptions,
    PDHGResult,
    _lockstep_pdhg,
    saddle_from_lp,
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
    #: Attempted steps refused at their limit, summed over members.
    rejected_steps: int
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
    saddles = [saddle_from_lp(lp) for lp in lps]
    m, n = saddles[0].m, saddles[0].n
    with obs.span("lp.pdhg_batch", category="lp", batch=len(lps), m=m, n=n) as sp:
        results, sweeps = _lockstep_pdhg(saddles, options or PDHGOptions(), hook)
        out = _collect(results, sweeps, n)
        sp.set(
            sweeps=sweeps,
            restarts=out.restarts,
            rejected_steps=out.rejected_steps,
            optimal=sum(s is LPStatus.OPTIMAL for s in out.statuses),
        )
        return out


def _collect(results: List[PDHGResult], sweeps: int, n: int) -> BatchPDHGResult:
    k = len(results)
    objectives = np.full(k, np.nan)
    x = np.zeros((k, n))
    bounds = np.full(k, np.inf)
    for i, res in enumerate(results):
        if res.status is LPStatus.INFEASIBLE:
            bounds[i] = -np.inf
        elif res.x is not None:
            x[i] = res.x
            bounds[i] = res.upper_bound()
            if res.status is LPStatus.OPTIMAL:
                objectives[i] = res.objective
    return BatchPDHGResult(
        statuses=[res.status for res in results],
        objectives=objectives,
        x=x,
        bounds=bounds,
        iterations=sweeps,
        member_iterations=np.array([res.stats.iterations for res in results]),
        restarts=sum(res.stats.restarts for res in results),
        rejected_steps=sum(res.stats.rejected_steps for res in results),
        results=results,
    )


@lru_cache(maxsize=K.BUILDER_MEMO_CAP)
def _matvec_pair(k: int, m: int, n: int, shared: bool) -> Tuple[K.KernelCost, K.KernelCost]:
    """``(Kᵀy, K x)`` for k members: GEMVs for one, plain GEMMs for a
    shared K, batched GEMVs for a stack."""
    if k == 1:
        return K.gemv_kernel(n, m), K.gemv_kernel(m, n)
    if shared:
        return K.gemm_kernel(k, n, m), K.gemm_kernel(k, m, n)
    return K.batched_gemm_kernel(k, 1, n, m), K.batched_gemm_kernel(k, 1, m, n)


@lru_cache(maxsize=K.BUILDER_MEMO_CAP)
def _sweep(k: int, m: int, n: int, shared: bool) -> Tuple[K.KernelCost, ...]:
    """One attempted step's three launches (DESIGN.md "One launch per step")."""
    k_t, k_x = _matvec_pair(k, m, n, shared)
    return (
        # The primal update, with the accept / where / span-sum pass of
        # the step before it: that pass reads the step limit's reduction.
        K.axpy_kernel(k * n),
        # K x̄, with the dual update and its projection in the epilogue.
        K.fused_kernel(k_x, K.axpy_kernel(k * m)),
        # Kᵀy′, with the step limit's three inner products in the epilogue.
        K.fused_kernel(k_t, K.dot_kernel(k * (m + n))),
    )


class PdhgDeviceHook(PDHGCostHook):
    """Charge the lockstep PDHG loop's kernel stream to a simulated device.

    The one PDHG pricing: a node LP is the batch of one (its products are
    GEMVs), a frontier that shares K runs plain GEMMs, a heterogeneous
    batch batched GEMVs.  An attempted step is three launches, whose
    bodies are the matvec pair, the two elementwise updates and one
    reduction over ``k·(m+n)`` elements — the step limit's ``‖Δx‖²``,
    ``‖Δy‖²`` and ``Δxᵀ KᵀΔy`` per member; the accept mask and the step
    ceilings stay on the device, so there is no per-sweep transfer, and a
    refused step costs exactly what an accepted one does.  KKT checks
    price a matvec pair plus reductions; a setup pair is one
    power-iteration step, on the whole matrix before the first sweep or
    on the live members' faces at a check (the face masks multiply the
    vectors, not the matrix, so a shared K keeps its plain GEMMs).
    No factorizations, no triangular solves — no ``serial_depth=m``
    kernels at all, which is the point of PDHG.
    """

    def __init__(self, device):
        self.device = device
        self._shared = True

    def on_layout(self, k: int, shared: bool) -> None:
        self._shared = shared

    def _launch(self, costs) -> None:
        for cost in costs:
            self.device._charge(cost, None)

    def on_setup(self, k: int, m: int, n: int) -> None:
        self._launch(_matvec_pair(k, m, n, self._shared))

    def on_iteration(self, k: int, m: int, n: int) -> None:
        self._launch(_sweep(k, m, n, self._shared))

    def on_check(self, k: int, m: int, n: int) -> None:
        self._launch(_matvec_pair(k, m, n, self._shared))
        self.device._charge(K.dot_kernel(k * max(m, n)), None)


def solve_lp_pdhg_batch_on_device(
    lps: List[LinearProgram],
    device,
    options: Optional[PDHGOptions] = None,
) -> BatchPDHGResult:
    """Solve a PDHG batch charging the fused kernel stream to ``device``.

    The stream is :class:`PdhgDeviceHook`'s.  Compare
    :func:`repro.lp.batch_simplex.solve_lp_batch_on_device`, which pays
    ``serial_depth=m`` triangular solves per pivot — the sync cost PDHG
    exists to avoid.
    """
    return solve_lp_pdhg_batch(lps, options=options, hook=PdhgDeviceHook(device))
