"""Revised primal simplex with product-form basis management.

A cold LP through the one door (:func:`repro.lp.warm.solve_warm_or_cold`)
is the dual loop from its slack basis; this loop only finishes it.  It
starts from the basis that loop leaves, which is primal feasible, when
that loop ran on zeroed costs or its answer failed the audit.  There is
no phase 1 and no artificial column.

This is the exterior-point workhorse the paper's §5.1 describes: a
resident basis inverse maintained by rank-1 eta updates
(:class:`repro.la.updates.ProductFormInverse`), refactorized on a cadence,
with pricing via ``btran`` and the ratio test via ``ftran``.  An optional
*cost hook* receives one callback per linear-algebra operation so a
simulated device can charge the exact kernel stream a GPU implementation
would launch (how strategies in :mod:`repro.strategies` meter their GPUs).

Algorithm notes:

- Standard form ``max cᵀx, Ax = b, 0 ≤ x ≤ upper`` (+inf where a
  column has no bound), started from a given primal-feasible basis.
- A nonbasic column sits at 0 or at ``upper`` (the ``at_upper`` mask)
  and is eligible by status; the ratio test is three-way — a basic falls
  to 0, rises to its bound, or the entering column reaches its own bound
  first (a flip: no eta).
- An iteration is one pricing pass: ``y = btran(c_B)`` and ``d = c − Aᵀy``
  once, then the candidates in the pricing rule's order — a run of bound
  flips (the basis and ``y`` do not move, so each next candidate is the
  one a fresh pricing would pick) and at most one pivot.
- Degeneracy: after :data:`DEGENERATE_SWITCH` consecutive degenerate
  pivots the pricing rule falls back to Bland's (provably cycle-free)
  until progress resumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.config import DEFAULT_SOLVER, DEFAULT_TOLERANCES
from repro.errors import ReproError, SingularMatrixError
from repro.guard import budget as guard_budget
from repro.guard.watchdog import IterationWatchdog
from repro.la.updates import ProductFormInverse
from repro import obs
from repro.lp.pricing import PRICING_RULES, BlandPricing, PricingRule, make_pricing
from repro.lp.problem import StandardFormLP
from repro.lp.result import LPResult, LPStatus

#: Poll the guard context every this-many pivots (cheap, off the hot path).
GUARD_EVERY = 32

#: Consecutive degenerate pivots before the pricing rule falls back to Bland's.
DEGENERATE_SWITCH = 40

#: Candidates a flip run solves and scans per block (after its first).
FLIP_BLOCK = 16


class CostHook:
    """Receives one call per linear-algebra operation of the simplex.

    The default implementation is a no-op; the device-backed hook in
    :mod:`repro.strategies.engine` charges the corresponding kernels.
    The primal loop solves through a
    :class:`~repro.la.updates.ProductFormInverse` (``on_factorize`` /
    ``on_ftran`` / ``on_btran``), the warm dual through an
    :class:`~repro.la.updates.ExplicitInverse` (``on_invert`` /
    ``on_inverse_apply`` / ``on_inverse_row`` / ``on_inverse_update``).

    Each call is one launch, and the loop decides what shares it
    (DESIGN.md "One launch per step"): a product is told the length of
    the elementwise pass riding in its epilogue (0: none), and
    independent elementwise passes back to back are one
    ``on_vector_pass``.  A pass that reduces is an ``on_ratio_test``.
    """

    def on_factorize(self, m: int) -> None:
        """Basis (re)factorization of an m×m matrix."""

    def on_ftran(self, m: int, num_etas: int) -> None:
        """Forward solve B x = b through the eta chain."""

    def on_btran(self, m: int, num_etas: int) -> None:
        """Backward solve Bᵀ y = c through the eta chain."""

    def on_pricing(self, m: int, n: int, epilogue: int) -> None:
        """An ``Aᵀ·`` product over n columns (a GEMV), with an elementwise
        pass over ``epilogue`` of its outputs in the same launch."""

    def on_flip_run(self, m: int, num_etas: int, width: int) -> None:
        """One block of a flip run: ``width`` candidate columns solved
        together (both triangular sweeps, then the eta chain) and their
        ratio tests scanned in order, ``x_B`` moving flip by flip."""

    def on_vector_pass(self, *lengths: int) -> None:
        """Non-reducing elementwise passes over vectors of ``lengths``,
        back to back in one launch (an eta append is one over m)."""

    def on_ratio_test(self, m: int) -> None:
        """An elementwise pass that reduces (ratio test, scan, dot)."""

    def on_invert(self, m: int) -> None:
        """Explicit m×m basis inverse (re)built: LU, then the inverse."""

    def on_inverse_apply(self, m: int, epilogue: int) -> None:
        """One solve against the explicit inverse (either side): a GEMV,
        with an elementwise pass over ``epilogue`` outputs (``β = 1``)."""

    def on_inverse_row(self, m: int) -> None:
        """A row of the explicit inverse read as the next product's
        operand (ρ = B⁻ᵀe_r): no launch of its own."""

    def on_inverse_update(self, m: int) -> None:
        """Rank-1 update of the explicit inverse (one basis change)."""

    def on_pivot(self) -> None:
        """An iteration begins (what a lockstep round aligns its members on)."""

    def on_propagation(self, k: int, m: int, n: int) -> None:
        """One pass of domain propagation over k boxes of an m-row,
        n-column ≤-row system: the batched min-activity product and the
        per-(row, column) candidate pass reduced per column, one launch
        (:class:`repro.mip.propagation.Propagator`)."""


NULL_HOOK = CostHook()


@dataclass
class SimplexOptions:
    """Tuning knobs for the revised simplex."""

    pricing: str = "dantzig"
    refactor_interval: int = 64
    max_iterations: Optional[int] = None

    def __post_init__(self):
        if self.pricing not in PRICING_RULES:
            raise ReproError(
                f"pricing must be one of {sorted(PRICING_RULES)}, got {self.pricing!r}"
            )
        if self.refactor_interval <= 0:
            raise ReproError(
                f"refactor_interval must be positive, got {self.refactor_interval!r}"
            )
        if self.max_iterations is not None and self.max_iterations <= 0:
            raise ReproError(
                f"max_iterations must be positive, got {self.max_iterations!r}"
            )


#: What a solve given no options runs under (shared; never mutated).
DEFAULT_OPTIONS = SimplexOptions()


def rhs_at_bounds(a, b, upper, at_upper, hook: CostHook) -> np.ndarray:
    """``b − N x_N`` (``x_B = B⁻¹`` of it): the at-upper columns moved across."""
    if not at_upper.any():
        return b
    hook.on_pricing(a.shape[0], int(np.count_nonzero(at_upper)), 0)
    return b - a[:, at_upper] @ upper[at_upper]


@dataclass
class _Workspace:
    """Mutable state of one simplex run over standard form data."""

    a: np.ndarray  # (m, n)
    b: np.ndarray
    basis: np.ndarray  # (m,) basic column per row
    pfi: ProductFormInverse
    x_basic: np.ndarray
    hook: CostHook
    options: SimplexOptions
    upper: np.ndarray  # (n,) column upper bounds, +inf where none
    at_upper: np.ndarray  # (n,) nonbasic columns sitting at ``upper``
    updates_since_refactor: int = 0
    iterations: int = 0

    def refactorize(self) -> None:
        basis_matrix = self.a[:, self.basis]
        self.pfi.refactorize(basis_matrix)
        self.hook.on_factorize(self.a.shape[0])
        obs.event(
            "lp.refactorize", category="lp",
            m=self.a.shape[0], iteration=self.iterations,
        )
        self.recompute_x()
        self.updates_since_refactor = 0

    def recompute_x(self) -> None:
        rhs = rhs_at_bounds(self.a, self.b, self.upper, self.at_upper, self.hook)
        self.x_basic = self.ftran(rhs)

    def ftran(self, rhs: np.ndarray) -> np.ndarray:
        self.hook.on_ftran(self.a.shape[0], self.pfi.num_etas)
        return self.pfi.ftran(rhs)

    def btran(self, rhs: np.ndarray) -> np.ndarray:
        self.hook.on_btran(self.a.shape[0], self.pfi.num_etas)
        return self.pfi.btran(rhs)


def solve_standard_form(
    sf: StandardFormLP,
    basis: np.ndarray,
    at_upper: Optional[np.ndarray] = None,
    options: Optional[SimplexOptions] = None,
    hook: CostHook = NULL_HOOK,
) -> LPResult:
    """Run the primal loop on ``max cᵀx + offset, Ax = b, 0 ≤ x ≤ upper``
    from ``basis``, a primal-feasible basis with its nonbasic columns at
    0, or at ``upper`` where ``at_upper`` marks them.

    ``iterations`` counts this loop's own pivots.  A start the loop
    cannot use (a singular basis, or ``x_B`` outside its bounds or not
    finite) is ``NUMERICAL`` with none.
    """
    with obs.span("lp.solve", category="lp", m=sf.a.shape[0], n=sf.a.shape[1]) as sp:
        result = _solve_standard_form(sf, basis, at_upper, options, hook)
        sp.set(status=result.status.value, iterations=result.iterations)
        return result


def _solve_standard_form(
    sf: StandardFormLP,
    basis: np.ndarray,
    at_upper: Optional[np.ndarray],
    options: Optional[SimplexOptions],
    hook: CostHook,
) -> LPResult:
    options = options or DEFAULT_OPTIONS
    tol = DEFAULT_TOLERANCES
    m, n = sf.a.shape
    upper = sf.upper

    if m == 0:
        # No constraints: every column with a positive cost goes to its
        # upper bound — unbounded when that is infinite.
        at_upper = sf.c > tol.optimality
        if np.any(at_upper & ~np.isfinite(upper)):
            return LPResult(status=LPStatus.UNBOUNDED)
        x_std = np.where(at_upper, upper, 0.0)
        return LPResult(
            status=LPStatus.OPTIMAL,
            objective=float(sf.c @ x_std) + sf.offset,
            x_standard=x_std,
            duals=np.zeros(0),
            basis=np.zeros(0, dtype=np.int64),
            at_upper=at_upper,
        )

    basis = np.array(basis, dtype=np.int64)
    at_upper = np.zeros(n, dtype=bool) if at_upper is None else np.array(at_upper, dtype=bool)
    at_upper[basis] = False
    try:
        pfi = ProductFormInverse(sf.a[:, basis])
    except SingularMatrixError:
        return LPResult(status=LPStatus.NUMERICAL)
    hook.on_factorize(m)
    ws = _Workspace(sf.a, sf.b, basis, pfi, np.zeros(m), hook, options, upper, at_upper)
    ws.recompute_x()
    x, room = ws.x_basic, tol.feasibility * (1.0 + float(np.max(np.abs(sf.b))))
    if not np.all(np.isfinite(x) & (x >= -room) & (x <= upper[basis] + room)):
        return LPResult(status=LPStatus.NUMERICAL)
    ws.x_basic = np.clip(x, 0.0, upper[basis])

    max_iter = options.max_iterations
    if max_iter is None:
        max_iter = DEFAULT_SOLVER.simplex_iter_limit(m, n)
    # A fixed column can never improve anything.
    status = _iterate(ws, sf.c, upper > 0.0, max_iter, tol)
    if status is not LPStatus.OPTIMAL:
        return LPResult(status=status, iterations=ws.iterations)

    x_std = np.where(ws.at_upper, upper, 0.0)
    x_std[ws.basis] = ws.x_basic
    x_std = np.clip(x_std, 0.0, upper)
    return LPResult(
        status=LPStatus.OPTIMAL,
        objective=float(sf.c @ x_std) + sf.offset,
        x_standard=x_std,
        duals=ws.btran(sf.c[ws.basis]),
        iterations=ws.iterations,
        basis=ws.basis.copy(),
        at_upper=ws.at_upper.copy(),
    )


def _iterate(
    ws: _Workspace,
    c: np.ndarray,
    allowed: np.ndarray,
    max_iter: int,
    tol,
) -> LPStatus:
    """Primal simplex pricing passes until optimal/unbounded/limit.

    A pass prices once and walks the entering candidates in the rule's
    :meth:`~repro.lp.pricing.PricingRule.order`.  A bound flip changes
    neither the basis nor ``y``, so the candidate a fresh pricing would
    pick next is the next one in that order: each flip moves ``x_B`` and
    the walk goes on, until the first candidate whose own bound does not
    win its ratio test pivots (or proves the LP unbounded).  The first
    candidate is solved alone; the rest of a run block by block
    (:data:`FLIP_BLOCK` columns, one :meth:`CostHook.on_flip_run`).
    """
    options = ws.options
    pricing: PricingRule = make_pricing(options.pricing)
    pricing.reset(c.shape[0])
    bland = BlandPricing()
    degenerate_streak = 0
    m = ws.a.shape[0]
    guard_ctx = guard_budget.active()
    watchdog = (
        IterationWatchdog("simplex", options=guard_ctx.watchdog_options)
        if guard_ctx is not None
        else None
    )

    while ws.iterations < max_iter:
        if guard_ctx is not None and ws.iterations % GUARD_EVERY == 0:
            if guard_ctx.deadline_hit():
                return LPStatus.TIME_LIMIT
            if watchdog is not None:
                signal = watchdog.observe(
                    ws.iterations,
                    merit=float(c[ws.basis] @ ws.x_basic),
                    vector=ws.x_basic,
                )
                # Slow progress is the Bland switch's concern (below);
                # only iterate corruption aborts the run.
                if not signal.ok:
                    return LPStatus.NUMERICAL
        ws.hook.on_pivot()
        y = ws.btran(c[ws.basis])
        ws.hook.on_pricing(m, ws.a.shape[1], 0)
        reduced = c - ws.a.T @ y
        # A column at its upper bound improves the objective by coming down.
        gain = np.where(ws.at_upper, -reduced, reduced)
        eligible = allowed & (gain > tol.optimality)
        eligible[ws.basis] = False
        rule = bland if degenerate_streak >= DEGENERATE_SWITCH else pricing
        order = rule.order(gain, eligible)
        upper_basic = ws.upper[ws.basis]
        for pos, entering in enumerate(order.tolist()):
            if pos == 0:
                w = ws.ftran(ws.a[:, entering])
                ws.hook.on_ratio_test(m)
            else:
                if (pos - 1) % FLIP_BLOCK == 0:
                    block = order[pos:pos + FLIP_BLOCK]
                    ws.hook.on_flip_run(m, ws.pfi.num_etas, block.size)
                    columns = ws.pfi.ftran_block(ws.a[:, block])
                w = columns[:, (pos - 1) % FLIP_BLOCK]
            # x_B moves by −t·step as the entering column moves t off its bound.
            from_upper = ws.at_upper[entering]
            step = -w if from_upper else w
            falls = step > tol.pivot
            rises = step < -tol.pivot
            ratios = np.where(
                falls,
                ws.x_basic / np.where(falls, step, 1.0),
                np.where(rises, (upper_basic - ws.x_basic) / np.where(rises, -step, 1.0), np.inf),
            )
            theta = ratios.min()
            flip = ws.upper[entering]
            if theta == np.inf and flip == np.inf:
                return LPStatus.UNBOUNDED
            if flip > theta:
                break
            if pos == 0:  # the pass's first step counts it
                ws.iterations += 1
                ws.hook.on_ratio_test(m)  # later flips move x_B in the scan
            ws.x_basic = np.clip(ws.x_basic - flip * step, 0.0, upper_basic)
            ws.at_upper[entering] = not from_upper
        else:
            # Every candidate flipped (or there was none): y and d stand.
            # A fixed column reports the bound whose multiplier is live.
            fixed = ws.upper == 0.0
            ws.at_upper[fixed] = reduced[fixed] > 0.0
            ws.at_upper[ws.basis] = False
            return LPStatus.OPTIMAL
        if pos == 0:
            ws.iterations += 1
        # Tie-break leaving row by largest pivot magnitude for stability.
        tied = np.nonzero(np.abs(ratios - theta) <= 1e-12 + 1e-9 * abs(theta))[0]
        leave_pos = int(tied[np.argmax(np.abs(w[tied]))])

        if theta <= tol.pivot:
            degenerate_streak += 1
        else:
            degenerate_streak = 0

        # Devex needs the pivot row of B⁻¹N before the basis changes.
        if rule is pricing and pricing.name == "devex":
            e_r = np.zeros(m)
            e_r[leave_pos] = 1.0
            rho = ws.btran(e_r)
            ws.hook.on_pricing(m, ws.a.shape[1], 0)
            pivot_row = ws.a.T @ rho
            pricing.update(entering, int(ws.basis[leave_pos]), w, pivot_row)

        leaving = ws.basis[leave_pos]
        ws.at_upper[leaving] = rises[leave_pos] and ws.upper[leaving] > 0.0
        ws.at_upper[entering] = False
        ws.hook.on_ratio_test(m)
        ws.x_basic = ws.x_basic - theta * step
        ws.x_basic[leave_pos] = flip - theta if from_upper else theta
        ws.basis[leave_pos] = entering
        ws.x_basic = np.clip(ws.x_basic, 0.0, ws.upper[ws.basis])
        try:
            ws.pfi.update(w, leave_pos)
            ws.hook.on_vector_pass(m)
        except SingularMatrixError:
            ws.refactorize()
        ws.updates_since_refactor += 1

        if ws.updates_since_refactor >= options.refactor_interval:
            ws.refactorize()

    return LPStatus.ITERATION_LIMIT
