"""The one way into the dual loop: audited warm re-solves.

The §5.3 reuse pattern: a branch-and-bound child differs from its parent
by one tightened variable bound, so the parent's optimal basis is dual
feasible for the child and the parent's *factorization* of that basis is
still exact whenever the matrix is unchanged — always, on the
standard form (:meth:`LinearProgram.to_standard_form`): a
branch moves one entry of ``upper`` or ``shift``, never ``A``.  This module
packages that reuse so every caller — the tree's node LPs, its cut
re-solves and probes (through :class:`repro.mip.solver.ExecutionEngine`),
serve's parametric path and the differential lanes — goes through one
audited entry point, and is the only caller of
:func:`~repro.lp.dual_simplex.dual_simplex_resolve`:

- :class:`WarmStartState` — the one spelling of a warm start: a basis,
  its nonbasic-at-upper mask, plus (when shapes still match) the live
  :class:`~repro.la.updates.ExplicitInverse` it was optimal under and
  the optimal iterate (:class:`~repro.lp.dual_simplex.DualIterate`:
  ``d``, ``y``, ``x_B`` and the ``b`` / nonbasic point they belong to).
  :meth:`WarmStartState.from_result` turns any answer into one;
  :meth:`WarmStartState.demoted` keeps the basis alone.
- :func:`warm_resolve` — attempt a warm dual-simplex re-solve, returning
  ``None`` whenever the state is unusable so the caller cold-solves.
  Optimal answers are KKT-audited *from scratch* against the actual
  problem, which is what makes reuse safe: a stale or corrupted inverse
  or iterate can only produce an answer that fails the audit (or an
  infeasibility the loop cannot certify from the problem's own data),
  never a silently wrong bound.
- :func:`solve_warm_or_cold` — the one LP door: the warm attempt, and
  a cold start from :func:`slack_start` when there is no state or it is
  refused (:func:`_solve_cold`; there is no phase 1).  The tree's node LPs, cut
  re-solves and probes, the heuristic portfolio's LPs, the API's LP
  path, the guard ladder's rungs, :func:`solve_lp` and the distributed
  evaluator all come in here.
- :func:`cold_start` — the one cold-start rule, the lockstep tableau's
  (:func:`repro.lp.batch_simplex.solve_lp_batch`) too.
- :class:`WarmSolveOutcome` — what one warm-or-cold solve produced: the
  answer (whose ``warm`` is the state it leaves), whether the warm
  start stood, whether it reused its seed's inverse, whether the audit
  failed, and every pivot that ran for it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from repro.config import DEFAULT_TOLERANCES
from repro.errors import LPError
from repro.lp.dual_simplex import WarmStartState, dual_simplex_resolve
from repro.lp.problem import LinearProgram, StandardFormLP
from repro.lp.result import LPResult, LPStatus
from repro.lp.simplex import NULL_HOOK, CostHook, SimplexOptions, solve_standard_form

@dataclass
class WarmSolveOutcome:
    """One LP's answer, and what its warm start did."""

    result: LPResult
    #: The caller's state seeded the solve and its answer stood.
    warm_used: bool = False
    #: A warm answer failed the from-scratch audit (after a fallback,
    #: ``result`` is the cold answer that replaced it).
    audit_failed: bool = False
    #: Every iteration that ran for this answer: the refused attempts'
    #: and the solve's that replaced them (by default the answer's own).
    pivots: Optional[int] = None
    #: A first-order (PDHG) answer: no basis, no pivots, and neither a
    #: warm nor a cold start.
    first_order: bool = False

    def __post_init__(self):
        if self.pivots is None:
            self.pivots = self.result.iterations

    @property
    def reused_factors(self) -> bool:
        """The warm solve pivoted on its seed's resident inverse (no
        re-inversion)."""
        warm = self.result.warm
        return warm is not None and warm.reused_factors


def audit_warm_lp(sf: StandardFormLP, result: LPResult) -> bool:
    """From-scratch KKT check of a warm-started optimal answer.

    Recomputes primal feasibility, dual feasibility, and strong duality
    directly from ``sf`` — deliberately *not* via the inverse or the
    carried iterate that produced the answer, so stale state cannot
    vouch for itself.  A non-finite objective fails (NaN compares false).
    """
    if result.status is not LPStatus.OPTIMAL or not np.isfinite(result.objective):
        return False
    tol = DEFAULT_TOLERANCES
    x = result.x_standard
    y = result.duals
    if x is None or y is None:
        return False
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        return False
    scale_b = 1.0 + float(np.abs(sf.b).max()) if sf.b.size else 1.0
    room = tol.feasibility * scale_b
    if ((x < -room) | (x > sf.upper + room)).any():
        return False
    residual = sf.a @ x - sf.b
    if residual.size and float(np.abs(residual).max()) > room:
        return False
    # Dual feasibility for max cᵀx, Ax=b, 0≤x≤u: d = c − Aᵀy ≤ 0 where
    # u is infinite; a finite u_j absorbs a positive d_j (its bound's
    # dual is max(d_j, 0)).
    reduced = sf.c - sf.a.T @ y
    boxed = np.isfinite(sf.upper)
    bound_duals = float(sf.upper[boxed] @ np.maximum(reduced[boxed], 0.0))
    reduced = reduced[~boxed]
    scale_c = 1.0 + float(np.abs(sf.c).max()) if sf.c.size else 1.0
    if reduced.size and float(reduced.max()) > tol.optimality * scale_c:
        return False
    # Strong duality (complementary slackness summed): cᵀx = bᵀy + uᵀz.
    primal = float(sf.c @ x)
    dual = float(sf.b @ y) + bound_duals
    gap_scale = 1.0 + max(abs(primal), abs(dual))
    if abs(primal - dual) > tol.optimality * gap_scale * 10.0:
        return False
    return True


def warm_resolve(
    sf: StandardFormLP,
    warm: Optional[WarmStartState],
    options: Optional[SimplexOptions] = None,
    hook: CostHook = NULL_HOOK,
    audit: bool = True,
) -> Optional[WarmSolveOutcome]:
    """Attempt a warm dual-simplex re-solve of ``sf`` from ``warm``.

    Returns ``None`` when the state cannot seed this problem (missing,
    wrong basis size, singular, or not dual feasible) — the caller must
    cold-solve.  Otherwise returns the outcome.  Two outcomes are
    refusals, with ``warm_used`` False, and must be discarded in favor of
    a cold solve (they recommend no state); their ``pivots`` ran:
    ``audit_failed=True`` marks an OPTIMAL answer that failed the
    from-scratch KKT audit, and a NUMERICAL answer with ``audit_failed``
    False a loop that failed after pivoting (it could not certify an
    infeasibility, or stalled on a zero pivot).
    Non-OPTIMAL statuses (TIME_LIMIT, ITERATION_LIMIT, NUMERICAL,
    INFEASIBLE) pass through for the caller's usual handling — a
    deadline hit mid-re-solve is still an anytime stop, not an error.
    An OPTIMAL answer the loop reached on perturbed costs is re-priced
    under ``sf.c`` (:func:`_unperturbed`) before the audit.
    """
    if warm is None or warm.basis is None:
        return None
    basis = np.asarray(warm.basis)
    if basis.ndim != 1 or basis.shape[0] != sf.m:
        return None
    try:
        result = dual_simplex_resolve(sf, warm, options, hook)
    except LPError as exc:
        if not exc.iterations:
            return None
        # The loop failed after pivoting: refused, and what ran counts.
        return WarmSolveOutcome(
            LPResult(status=LPStatus.NUMERICAL, iterations=exc.iterations)
        )
    if result.status is LPStatus.OPTIMAL and result.warm.iterate.c is not sf.c:
        result = _unperturbed(sf, result, options, hook)
    if result.status is LPStatus.OPTIMAL and audit and not audit_warm_lp(sf, result):
        result.warm = None
        return WarmSolveOutcome(result, audit_failed=True)
    return WarmSolveOutcome(result, warm_used=True)


def _unperturbed(
    sf: StandardFormLP, result: LPResult, options: Optional[SimplexOptions], hook: CostHook
) -> LPResult:
    """The answer under ``sf.c`` of a dual loop that perturbed its costs:
    ``y`` and ``d`` re-priced on its inverse (one btran, one pricing).  A
    point dual infeasible under ``sf.c`` is finished by the primal loop
    from its basis, as a cold solve on zeroed costs is."""
    warm = result.warm
    m, n = sf.a.shape
    hook.on_inverse_apply(m, 0)
    y = warm.inverse.btran(sf.c[warm.basis])
    hook.on_pricing(m, n, n)
    d = sf.c - sf.a.T @ y
    d[warm.basis] = 0.0
    fixed = sf.upper == 0.0
    tol = DEFAULT_TOLERANCES.optimality
    if (~fixed & np.where(warm.at_upper, d < -tol, d > tol)).any():
        return _finish(sf, result, options, hook)
    # A fixed column reports the bound whose multiplier is live.
    at_upper = np.where(fixed, d > 0.0, warm.at_upper)
    at_upper[warm.basis] = False
    iterate = replace(warm.iterate, c=sf.c, d=d, y=y)
    warm = replace(warm, at_upper=at_upper, iterate=iterate)
    return replace(result, duals=y, at_upper=at_upper, warm=warm)


def slack_start(sf: StandardFormLP) -> WarmStartState:
    """The slack basis of ``sf``: each row's own slack (every row has one,
    an equality row's fixed at 0; the form's trailing columns) basic,
    every other column at a bound."""
    m, n = sf.a.shape
    return WarmStartState(basis=np.arange(n - m, n), shape=(m, n))


def cold_start(c: np.ndarray, upper: np.ndarray, b: np.ndarray):
    """How each member leaves its slack basis: ``(raised, zeroed, primal)``.

    ``c`` prices the leading columns of ``upper``, whose last ``len(b)``
    are the slacks; each may lead with a member axis.  A member with a
    primal feasible slack basis and an unboxed positive cost starts
    ``primal``.  Any other starts dual, boxed positive costs ``raised``
    to their bound and unboxed ones ``zeroed``, so that ``y = 0`` is
    dual feasible (Koberstein, *The dual simplex method*, 2005).
    """
    boxed = np.isfinite(upper[..., : c.shape[-1]])
    slacks = upper[..., upper.shape[-1] - b.shape[-1]:]
    positive = c > 0.0
    feasible = ((b >= 0.0) & (b <= slacks)).all(axis=-1)
    primal = feasible & (positive & ~boxed).any(axis=-1)
    dual = positive & ~primal[..., None]
    return dual & boxed, dual & ~boxed, primal


def solve_warm_or_cold(
    sf: StandardFormLP,
    warm: Optional[WarmStartState],
    hook: CostHook = NULL_HOOK,
    audit: bool = True,
    cold_options: Optional[SimplexOptions] = None,
) -> WarmSolveOutcome:
    """Solve ``sf``: warm from ``warm`` through :func:`warm_resolve`, cold
    when there is no state or it is refused (unusable, or its answer
    failed the audit).

    The cold start (:func:`_solve_cold`) leaves :func:`slack_start` as
    :func:`cold_start` says.  Either way the outcome is a cold start
    (``warm_used`` False).

    Every attempt is priced on ``hook``.  ``cold_options`` bound the
    cold solve only (a strong-branching probe's truncation); the warm
    attempt runs on the defaults.  The outcome's ``pivots`` count every
    pivot that ran, the refused attempts' included.
    """
    # No state, no attempt: only a refused state is a cold fallback.
    outcome = None if warm is None else warm_resolve(sf, warm, hook=hook, audit=audit)
    if outcome is not None and outcome.warm_used:
        return outcome
    audit_failed = outcome is not None and outcome.audit_failed
    refused = 0 if outcome is None else outcome.pivots
    result = _solve_cold(sf, cold_options, hook)
    return WarmSolveOutcome(
        result, audit_failed=audit_failed, pivots=refused + result.iterations
    )


def _solve_cold(
    sf: StandardFormLP,
    options: Optional[SimplexOptions] = None,
    hook: CostHook = NULL_HOOK,
) -> LPResult:
    """Solve ``sf`` from its slack basis as :func:`cold_start` says, with
    no phase 1: a primal start (or no rows) in the primal loop, a dual
    one in the audited dual loop, which the primal loop finishes under
    the true ``c`` when costs were zeroed or the audit refused the
    answer.  INFEASIBLE stands as proved: the dual proof never reads
    ``c``.  A start the loops cannot finish is ``NUMERICAL``, for the
    guard ladder.  ``iterations`` counts both loops' pivots.
    """
    raised, zeroed, primal = cold_start(sf.c, sf.upper, sf.b)
    slacks = slack_start(sf)
    if primal or sf.m == 0:
        return solve_standard_form(sf, slacks.basis, options=options, hook=hook)
    start = replace(sf, c=np.where(zeroed, 0.0, sf.c)) if zeroed.any() else sf
    dual = warm_resolve(start, replace(slacks, at_upper=raised), options, hook)
    if dual is None:
        return LPResult(status=LPStatus.NUMERICAL)
    answer = dual.result
    if answer.status is not LPStatus.OPTIMAL or (dual.warm_used and start is sf):
        return answer
    return _finish(sf, answer, options, hook)


def _finish(
    sf: StandardFormLP, answer: LPResult, options: Optional[SimplexOptions], hook: CostHook
) -> LPResult:
    """The primal loop's finish of ``answer`` under ``sf.c``, from its
    basis; ``iterations`` counts both loops' pivots."""
    cleanup = solve_standard_form(sf, answer.basis, answer.at_upper, options, hook)
    iterations = answer.iterations + cleanup.iterations
    if cleanup.status is LPStatus.OPTIMAL and not np.isfinite(cleanup.objective):
        return LPResult(status=LPStatus.NUMERICAL, iterations=iterations)
    return replace(cleanup, iterations=iterations)


def solve_lp(lp: LinearProgram, hook: CostHook = NULL_HOOK) -> LPResult:
    """Solve a :class:`LinearProgram` cold (:func:`_solve_cold`).

    ``basis`` / ``at_upper`` / ``duals`` / ``x_standard`` come back in
    ``lp.to_standard_form()`` indexing, ``x`` in the original variables.
    """
    sf = lp.to_standard_form()
    result = _solve_cold(sf, None, hook)
    if result.ok and result.x_standard is not None:
        result.x = sf.recover_x(result.x_standard)
    return result
