"""Bounded-variable dual simplex re-optimization from a warm basis.

This is the §5.2/§5.3 reuse engine: after a branch tightens a bound or a
cut row is appended, the parent node's optimal basis remains *dual*
feasible (reduced costs unchanged; the new slack prices at zero) while
primal feasibility breaks only in the new/changed rows.  The dual
simplex repairs primal feasibility in a handful of pivots instead of
re-solving from scratch — with the matrix staying resident on the device
the whole time.

Columns carry bounds ``0 ≤ x ≤ upper`` (``sf.upper``, +inf where a
column has none).  A nonbasic boxed column is *made* dual feasible by
sitting at the bound its reduced cost wants, so a branch — one entry of
``upper`` — never refuses a warm start.  The ratio test is long-step:
breakpoints are passed, their columns flipped to the other bound, while
the leaving row stays infeasible; one extra ftran applies the flips.

The loop pivots on a resident *explicit* inverse
(:class:`repro.la.updates.ExplicitInverse`: a solve is one GEMV, a basis
change one rank-1 GER) and keeps ``d``, ``y`` and ``x_B`` current pivot
by pivot.  The leaving row's ``ρ = B⁻ᵀe_r`` is no solve at all: it is
row r of that inverse, read in place and handed to the product
``Aᵀρ`` (no launch on one device; a gather on a row-sharded inverse).
A warm pivot launches ``Aᵀρ`` with its ratio pass, the breakpoint scan,
the entering ftran, the ``x_B`` / ``d`` / ``y`` pass and the GER: five
launches, seven with flips (DESIGN.md "A warm node costs its pivots").  One record goes in and comes out: the loop starts from a
:class:`WarmStartState` and an OPTIMAL exit hands back, as
``LPResult.warm``, the state it ends on — basis, inverse and iterate
(:class:`DualIterate`) — so nothing is re-derived at entry or exit while
they stay valid.

``dual_simplex_resolve`` raises :class:`repro.errors.LPError` when the
supplied basis is unusable (singular, names a column outside the
form, or is not dual feasible), or when the loop fails after
pivoting (the error's ``iterations`` counts the pivots done).  Its one
caller is :func:`repro.lp.warm.warm_resolve`, which turns that into a
cold fallback and audits every OPTIMAL answer.  A cold LP that
:func:`repro.lp.warm.cold_start` starts dual starts here too, from its
slack basis with its boxed positive costs at their upper bound and its
unboxed ones zeroed; the primal loop then finishes it under the true
costs.  :data:`DEGENERATE_SWITCH` pivots in a row with a zero
dual step shift the loop's costs once (:func:`_perturbed`); an OPTIMAL
answer carries them as its iterate's ``c``, and ``warm_resolve``
re-prices it under ``sf.c``.  An infeasibility proof reads ``A``, ``b``
and ``upper``, never ``c``, so it stands for the true costs too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.config import DEFAULT_SOLVER, DEFAULT_TOLERANCES
from repro.errors import LPError, SingularMatrixError
from repro.guard import budget as guard_budget
from repro.guard.watchdog import IterationWatchdog
from repro.la.updates import ExplicitInverse
from repro.lp.problem import StandardFormLP
from repro.lp.result import LPResult, LPStatus
from repro.lp.simplex import (
    DEFAULT_OPTIONS,
    DEGENERATE_SWITCH,
    GUARD_EVERY,
    NULL_HOOK,
    CostHook,
    SimplexOptions,
    rhs_at_bounds,
)
from repro import obs

#: Relative size of the cost shift a dual-degenerate stall triggers.
PERTURBATION = 1e-9


@dataclass
class DualIterate:
    """The iterate an OPTIMAL re-solve ends on — where a child's begins.

    A branch moves ``upper`` / ``shift`` (hence ``b``), never ``A`` or
    ``c``: at the parent's basis ``d`` and ``y`` are the child's bit for
    bit, and ``x_B`` moves by ``B⁻¹`` of the change in ``b − N x_N``.
    """

    #: The objective ``d`` and ``y`` were priced under (the loop's shifted
    #: costs after a stall, until ``warm_resolve`` re-prices them).
    c: np.ndarray
    #: Reduced costs ``c − Aᵀy`` (0 on the basis).
    d: np.ndarray
    #: Duals ``B⁻ᵀ c_B``.
    y: np.ndarray
    #: ``B⁻¹ (b − N x_N)``, unclipped.
    x_basic: np.ndarray
    #: The ``b`` and nonbasic point (0 on the basis) ``x_basic`` belongs to.
    b: np.ndarray
    x_nonbasic: np.ndarray


@dataclass
class WarmStartState:
    """Where a dual re-solve starts: a basis, and what came with it.

    ``shape`` records the standard form the state was captured on;
    ``inverse``, ``at_upper`` and ``iterate`` are only reused when the
    target problem has the same shape (same matrix layout), otherwise
    the basis alone seeds the re-solve.  The iterate is trusted on three
    conditions, the last two checked by the dual loop: the shapes match,
    the inverse is reused as it stands (no entry refactor), and the
    target's ``c`` is the one it was priced under.
    """

    basis: np.ndarray
    shape: Tuple[int, int]
    #: The live :class:`~repro.la.updates.ExplicitInverse` of the basis.
    inverse: Optional[ExplicitInverse] = None
    #: Nonbasic columns at their upper bound (None: all at 0).
    at_upper: Optional[np.ndarray] = None
    #: The optimal iterate (None after a cold solve: nothing to carry).
    iterate: Optional[DualIterate] = None
    #: The re-solve that left this state pivoted on its seed's inverse
    #: as it stood (no re-inversion).
    reused_factors: bool = False

    @classmethod
    def from_result(
        cls, sf: StandardFormLP, result: LPResult
    ) -> Optional["WarmStartState"]:
        """The state an answer on ``sf`` leaves for the next re-solve.

        A dual re-solve's answer carries its live state (``result.warm``);
        any other optimal basic answer leaves its basis and at-upper mask
        (a cold engine's factors are not exposed, so the first warm
        re-solve inverts the basis).  Anything else leaves nothing.
        """
        if result.warm is not None:
            return result.warm
        if result.status is not LPStatus.OPTIMAL or result.basis is None:
            return None
        return cls(
            basis=np.array(result.basis, dtype=np.int64),
            shape=(sf.m, sf.n),
            at_upper=result.at_upper,
        )

    def demoted(self) -> "WarmStartState":
        """The basis alone: what seeds a re-solve once the inverse and
        iterate are given up (the re-solve re-inverts)."""
        return WarmStartState(basis=self.basis, shape=self.shape)


def dual_simplex_resolve(
    sf: StandardFormLP,
    warm: WarmStartState,
    options: Optional[SimplexOptions] = None,
    hook: CostHook = NULL_HOOK,
) -> LPResult:
    """Re-optimize ``max cᵀx, Ax=b, 0≤x≤upper`` starting from ``warm``.

    ``warm.basis`` must name m valid columns forming a dual-feasible
    basis (the typical source: the parent LP's optimal basis, extended
    with the slacks of any newly appended rows); ``warm.at_upper`` marks
    the nonbasic columns the source left at their upper bound (it only
    decides ties: a boxed column whose reduced cost has a sign sits
    where that wants).  The mask, the inverse and the iterate are read
    only when ``warm.shape`` is ``sf``'s; otherwise the basis alone
    seeds the re-solve.

    ``warm.inverse`` is a resident inverse of ``sf.a[:, basis]`` (the
    parent node's): it is cloned and pivoted on directly, skipping the
    initial refactorization — the caller must guarantee the matrix
    columns are unchanged (a stale inverse is caught by the caller's
    warm audit, not here).  ``warm.iterate`` is the starting point only
    when that inverse is reused as it stands and ``sf.c`` is the
    objective it was priced under, otherwise ``y``, ``d`` and ``x_B``
    are derived from scratch.  An OPTIMAL result carries, as
    ``result.warm``, the state it ends on: what the next re-solve
    starts from.
    """
    with obs.span(
        "lp.dual_resolve", category="lp", m=sf.a.shape[0], n=sf.a.shape[1]
    ) as sp:
        result = _dual_simplex_resolve(sf, warm, options, hook)
        sp.set(status=result.status.value, iterations=result.iterations)
        return result


def _dual_simplex_resolve(
    sf: StandardFormLP,
    warm: WarmStartState,
    options: Optional[SimplexOptions],
    hook: CostHook,
) -> LPResult:
    options = options or DEFAULT_OPTIONS
    tol = DEFAULT_TOLERANCES
    m, n = sf.a.shape
    basis = np.asarray(warm.basis, dtype=np.int64).copy()
    if warm.shape == (m, n):
        warm_inverse, warm_at_upper, warm_iterate = warm.inverse, warm.at_upper, warm.iterate
    else:
        warm_inverse = warm_at_upper = warm_iterate = None

    if basis.shape[0] != m:
        raise LPError(f"basis has {basis.shape[0]} entries for {m} rows")
    if (basis < 0).any() or (basis >= n).any():
        raise LPError("basis references columns outside the problem")
    if len(set(basis.tolist())) != m:
        raise LPError("basis has repeated columns")

    # Clone so our pivots never corrupt the caller's resident copy
    # (siblings and strong-branching probes share the parent state); an
    # inverse due its refactor is rebuilt like one that was never there.
    reused_factors = (
        warm_inverse is not None
        and warm_inverse.n == m
        and warm_inverse.num_etas < options.refactor_interval
    )
    if reused_factors:
        inverse = warm_inverse.clone()
    else:
        try:
            inverse = ExplicitInverse(sf.a[:, basis])
        except SingularMatrixError as exc:
            raise LPError(f"warm basis is singular: {exc}") from exc
        hook.on_invert(m)

    # Each charge is one launch; an elementwise pass over a product's
    # output rides in that product's epilogue (DESIGN.md "One launch per
    # step").
    def ftran(v: np.ndarray, epilogue: int) -> np.ndarray:
        hook.on_inverse_apply(m, epilogue)
        return inverse.ftran(v)

    def btran(v: np.ndarray) -> np.ndarray:
        hook.on_inverse_apply(m, 0)
        return inverse.btran(v)

    def reduced_costs(epilogue: int):
        y = btran(cost[basis])
        hook.on_pricing(m, n, epilogue)
        reduced = cost - sf.a.T @ y
        reduced[basis] = 0.0
        return reduced, y

    def basic_solution() -> np.ndarray:
        return ftran(rhs_at_bounds(sf.a, sf.b, upper, at_upper, hook), 0)

    def refactor():
        inverse.refactorize(sf.a[:, basis])
        hook.on_invert(m)
        return (*reduced_costs(0), basic_solution())

    upper = sf.upper
    # The costs the loop prices under: sf.c until a stall perturbs them.
    cost = sf.c
    # Nonbasic columns with room to move; at_upper is a subset of them.
    movable = upper > 0.0
    movable[basis] = False
    # The parent's iterate is the child's only on the parent's inverse
    # and under the parent's objective; anything else starts from scratch.
    carried = (
        warm_iterate is not None
        and reused_factors
        and (warm_iterate.c is sf.c or np.array_equal(warm_iterate.c, sf.c))
    )
    if carried:
        d, y = warm_iterate.d, warm_iterate.y
        # The status pass below and the Δx_N and Δb passes after it: one
        # launch (the dual-feasibility verdict is a flag read with it).
        hook.on_vector_pass(n, n, m)
    else:
        # The status pass rides in the epilogue of the product giving d.
        d, y = reduced_costs(n)
    # A boxed column sits at the bound its reduced cost wants (the
    # caller's mask decides ties), so only an unboxed one can refuse.
    hinted = False if warm_at_upper is None else warm_at_upper
    at_upper = movable & np.isfinite(upper) & ((d > 1e-6) | (hinted & (d >= -1e-6)))
    if (d[movable & ~at_upper] > 1e-6).any():
        raise LPError("warm basis is not dual feasible")
    if carried:
        # x_B moves by B⁻¹ of the change in b − N x_N: by nothing when
        # only a basic column's bound moved.
        change = np.where(at_upper, upper, 0.0) - warm_iterate.x_nonbasic
        delta = sf.b - warm_iterate.b
        columns = change.nonzero()[0]
        if columns.size:
            hook.on_pricing(m, columns.size, 0)
            delta -= sf.a[:, columns] @ change[columns]
        x_basic = warm_iterate.x_basic
        if delta.any():
            # x_B += B⁻¹Δ: a GEMV with β = 1.
            x_basic = x_basic + ftran(delta, m)
    else:
        x_basic = basic_solution()

    max_iter = options.max_iterations
    if max_iter is None:
        max_iter = DEFAULT_SOLVER.simplex_iter_limit(m, n)

    iterations = 0
    updates = 0
    stall = 0
    guard_ctx = guard_budget.active()
    watchdog = (
        IterationWatchdog("dual_simplex", options=guard_ctx.watchdog_options)
        if guard_ctx is not None
        else None
    )
    while iterations < max_iter:
        upper_basic = upper[basis]
        violation = np.maximum(-x_basic, x_basic - upper_basic)
        if guard_ctx is not None and iterations % GUARD_EVERY == 0:
            if guard_ctx.deadline_hit():
                return LPResult(status=LPStatus.TIME_LIMIT, iterations=iterations)
            # Merit: total primal infeasibility (both bounds), driven to zero.
            signal = watchdog.observe(
                iterations,
                merit=float(np.sum(np.maximum(violation, 0.0))),
                vector=x_basic,
            )
            if not signal.ok:
                return LPResult(status=LPStatus.NUMERICAL, iterations=iterations)
        if violation.max(initial=0.0) <= tol.feasibility:
            break  # primal feasible and dual feasible: optimal
        leave_pos = int(np.argmax(violation))

        # The leaving variable goes to its lower (sigma=+1) or upper bound.
        sigma = 1.0 if x_basic[leave_pos] < 0.0 else -1.0
        hook.on_pivot()
        # ρ = B⁻ᵀe_r is row r of the resident inverse: read, not solved
        # for, and never written.
        hook.on_inverse_row(m)
        rho = inverse.row(leave_pos)
        # The ratio pass rides in the epilogue of the product giving α.
        hook.on_pricing(m, n, n)
        alpha = sigma * (sf.a.T @ rho)

        candidates = movable & np.where(at_upper, alpha > tol.pivot, alpha < -tol.pivot)
        ratios = np.where(candidates, d / np.where(candidates, alpha, 1.0), np.inf)
        # Long-step ratio test: walk the breakpoints |d_j / alpha_j| in
        # order, flipping each column to its other bound while the row
        # stays infeasible without it; the first that cannot be passed
        # enters (immediately, when its bound is infinite).  The sort
        # reads every ratio: a launch of its own.
        hook.on_ratio_test(n)
        slope = violation[leave_pos]
        flips = []
        entering = -1
        for j in np.argsort(ratios, kind="stable"):
            if not candidates[j]:
                break
            slope -= abs(alpha[j]) * upper[j]
            if slope <= tol.feasibility:
                entering = int(j)
                break
            flips.append(j)
        if entering < 0:
            # The proof is read off sf alone: σρᵀA x = σρᵀb on every
            # feasible x, and the box cannot bring the left side down
            # to the right.  A stale inverse or iterate only fails it.
            hook.on_ratio_test(m)
            hook.on_ratio_test(n)
            down = alpha < -tol.pivot
            if not alpha[down] @ upper[down] - sigma * (rho @ sf.b) > 0.5 * tol.feasibility:
                raise LPError(
                    "dual simplex could not certify infeasibility", iterations
                )
            return LPResult(status=LPStatus.INFEASIBLE, iterations=iterations)
        if flips:
            step = np.where(at_upper[flips], -upper[flips], upper[flips])
            at_upper[flips] = ~at_upper[flips]
            hook.on_pricing(m, len(flips), 0)
            # x_B −= B⁻¹(A_F Δ_F): a GEMV with β = 1.
            x_basic = x_basic - ftran(sf.a[:, flips] @ step, m)

        w = ftran(sf.a[:, entering], 0)
        if abs(w[leave_pos]) <= tol.pivot:
            # Numerically unusable pivot; refactorize and retry once.
            d, y, x_basic = refactor()
            w = ftran(sf.a[:, entering], 0)
            if abs(w[leave_pos]) <= tol.pivot:
                raise LPError("dual simplex stalled on a zero pivot", iterations)

        # θ_p reads w[r], a device-wide result, so the x_B, d and y
        # updates start a new launch, and share it.
        bound = 0.0 if sigma > 0.0 else upper_basic[leave_pos]
        theta_p = (x_basic[leave_pos] - bound) / w[leave_pos]
        hook.on_vector_pass(m, n, m)
        x_basic = x_basic - theta_p * w
        x_basic[leave_pos] = (
            upper[entering] + theta_p if at_upper[entering] else theta_p
        )
        tau = d[entering] / alpha[entering]
        d = d - tau * alpha
        y = y + (tau * sigma) * rho
        leaving = basis[leave_pos]
        d[leaving] = -sigma * tau
        d[entering] = 0.0
        movable[entering] = at_upper[entering] = False
        movable[leaving] = upper[leaving] > 0.0
        at_upper[leaving] = movable[leaving] and sigma < 0.0
        basis[leave_pos] = entering
        try:
            inverse.update(w, leave_pos)
            hook.on_inverse_update(m)
        except SingularMatrixError:
            d, y, x_basic = refactor()
        updates += 1
        iterations += 1
        if updates >= options.refactor_interval:
            d, y, x_basic = refactor()
            updates = 0
        if -tol.pivot <= tau <= tol.pivot:
            stall += 1
            if stall == DEGENERATE_SWITCH and cost is sf.c:
                cost, d = _perturbed(cost, d, movable, at_upper)
                hook.on_vector_pass(n)
        else:
            stall = 0
    else:
        return LPResult(status=LPStatus.ITERATION_LIMIT, iterations=iterations)

    # A fixed column reports the bound whose multiplier is live (d_j > 0:
    # upper), so every positive d_j sits on a column at its bound.
    at_upper |= ~movable & (d > 0.0)
    at_upper[basis] = False
    x_nonbasic = np.where(at_upper, upper, 0.0)
    x_std = x_nonbasic.copy()
    x_std[basis] = x_basic.clip(0.0, upper_basic)
    return LPResult(
        status=LPStatus.OPTIMAL,
        objective=float(sf.c @ x_std) + sf.offset,
        x_standard=x_std,
        duals=y,
        iterations=iterations,
        basis=basis.copy(),
        at_upper=at_upper,
        warm=WarmStartState(
            basis=basis.copy(),
            shape=(m, n),
            inverse=inverse,
            at_upper=at_upper,
            iterate=DualIterate(cost, d, y, x_basic, sf.b, x_nonbasic),
            reused_factors=reused_factors,
        ),
    )


def _perturbed(cost: np.ndarray, d: np.ndarray, movable, at_upper):
    """The costs and reduced costs a dual-degenerate stall moves to: each
    movable nonbasic cost by ``(1 + u_j)·δ·(1 + |c_j|)``, ``u_j`` seeded,
    down at 0 and up at ``upper`` (its dual-feasible side), so the ratio
    test's ties break.  Basic costs, hence ``y``, stay."""
    step = (1.0 + np.random.default_rng(0).random(cost.size)) * PERTURBATION * (1.0 + np.abs(cost))
    shift = np.where(movable, np.where(at_upper, step, -step), 0.0)
    return cost + shift, d + shift
