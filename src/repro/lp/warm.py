"""Warm-start state management for dual-simplex re-solves.

The §5.3 reuse pattern: a branch-and-bound child differs from its parent
by one tightened variable bound, so the parent's optimal basis is dual
feasible for the child and the parent's *factorization* of that basis is
still exact whenever the matrix is unchanged — always, on the
standard form (:meth:`LinearProgram.to_standard_form`): a
branch moves one entry of ``upper`` or ``shift``, never ``A``.  This module
packages that reuse so every driver — serial B&B, the batched node
solver, the metered strategy engines, and serve's parametric path — goes
through one audited entry point:

- :class:`WarmStartState` — a basis, its nonbasic-at-upper mask, plus
  (when shapes still match) the live
  :class:`~repro.la.updates.ExplicitInverse` it was optimal under and
  the optimal iterate (:class:`~repro.lp.dual_simplex.DualIterate`:
  ``d``, ``y``, ``x_B`` and the ``b`` / nonbasic point they belong to).
- :func:`warm_resolve` — attempt a warm dual-simplex re-solve, returning
  ``None`` whenever the state is unusable so the caller cold-solves.
  Optimal answers are KKT-audited *from scratch* against the actual
  problem, which is what makes reuse safe: a stale or corrupted inverse
  or iterate can only produce an answer that fails the audit (or an
  infeasibility the loop cannot certify from the problem's own data),
  never a silently wrong bound.
- :class:`WarmStateCache` — a bounded LRU of per-node states so deep
  trees cannot hoard factorizations.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Hashable, Optional, Tuple

import numpy as np

from repro.config import DEFAULT_TOLERANCES
from repro.errors import LPError
from repro.la.updates import ExplicitInverse
from repro.lp.dual_simplex import DualIterate, dual_simplex_resolve
from repro.lp.problem import StandardFormLP
from repro.lp.result import LPResult, LPStatus
from repro.lp.simplex import NULL_HOOK, CostHook, SimplexOptions


@dataclass
class WarmStartState:
    """A re-solve starting point captured from an optimal basic solution.

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
    inverse: Optional[ExplicitInverse] = None
    #: Nonbasic columns at their upper bound (None: all at 0).
    at_upper: Optional[np.ndarray] = None
    #: The optimal iterate (None after a cold solve: nothing to carry).
    iterate: Optional[DualIterate] = None


@dataclass
class WarmSolveOutcome:
    """What a warm attempt produced, and the state it leaves behind."""

    result: LPResult
    reused_factors: bool = False
    audit_failed: bool = False
    state: Optional[WarmStartState] = None


def state_from_result(sf: StandardFormLP, result: LPResult) -> Optional[WarmStartState]:
    """Capture a warm state from a cold solve's basic optimal solution.

    No inverse is built here — the cold engine's internal factors are
    not exposed — so the state seeds the next solve with the basis only;
    the first warm re-solve then leaves a live inverse and iterate behind.
    """
    if result.status is not LPStatus.OPTIMAL or result.basis is None:
        return None
    return WarmStartState(
        basis=np.asarray(result.basis, dtype=np.int64).copy(),
        shape=(sf.m, sf.n),
        at_upper=result.at_upper,
    )


def audit_warm_lp(sf: StandardFormLP, result: LPResult) -> bool:
    """From-scratch KKT check of a warm-started optimal answer.

    Recomputes primal feasibility, dual feasibility, and strong duality
    directly from ``sf`` — deliberately *not* via the inverse or the
    carried iterate that produced the answer, so stale state cannot
    vouch for itself.
    """
    if result.status is not LPStatus.OPTIMAL:
        return False
    tol = DEFAULT_TOLERANCES
    x = result.x_standard
    y = result.duals
    if x is None or y is None:
        return False
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        return False
    scale_b = 1.0 + float(np.max(np.abs(sf.b))) if sf.b.size else 1.0
    room = tol.feasibility * scale_b
    if np.any((x < -room) | (x > sf.upper + room)):
        return False
    residual = sf.a @ x - sf.b
    if residual.size and float(np.max(np.abs(residual))) > room:
        return False
    # Dual feasibility for max cᵀx, Ax=b, 0≤x≤u: d = c − Aᵀy ≤ 0 where
    # u is infinite; a finite u_j absorbs a positive d_j (its bound's
    # dual is max(d_j, 0)).
    reduced = sf.c - sf.a.T @ y
    boxed = np.isfinite(sf.upper)
    bound_duals = float(sf.upper[boxed] @ np.maximum(reduced[boxed], 0.0))
    reduced = reduced[~boxed]
    scale_c = 1.0 + float(np.max(np.abs(sf.c))) if sf.c.size else 1.0
    if reduced.size and float(np.max(reduced)) > tol.optimality * scale_c:
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
    cold-solve.  Otherwise returns the outcome; ``audit_failed=True``
    marks an OPTIMAL answer that failed the from-scratch KKT audit and
    must be discarded in favor of a cold solve.  Non-OPTIMAL statuses
    (TIME_LIMIT, ITERATION_LIMIT, NUMERICAL, INFEASIBLE) pass through
    for the caller's usual handling — a deadline hit mid-re-solve is
    still an anytime stop, not an error.
    """
    if warm is None or warm.basis is None:
        return None
    basis = np.asarray(warm.basis, dtype=np.int64)
    if basis.ndim != 1 or basis.shape[0] != sf.m:
        return None
    same_layout = warm.shape == (sf.m, sf.n)
    state_out: dict = {}
    try:
        result = dual_simplex_resolve(
            sf,
            basis,
            options,
            hook,
            inverse=warm.inverse if same_layout else None,
            state_out=state_out,
            at_upper=warm.at_upper if same_layout else None,
            iterate=warm.iterate if same_layout else None,
        )
    except LPError:
        return None
    outcome = WarmSolveOutcome(result=result)
    if state_out:
        outcome.reused_factors = state_out["reused_factors"]
        outcome.state = WarmStartState(
            basis=state_out["basis"],
            shape=(sf.m, sf.n),
            inverse=state_out["inverse"],
            at_upper=state_out["at_upper"],
            iterate=state_out["iterate"],
        )
    if result.status is LPStatus.OPTIMAL and audit:
        if not audit_warm_lp(sf, result):
            outcome.audit_failed = True
            outcome.state = None
    return outcome


class WarmStateCache:
    """Bounded LRU of :class:`WarmStartState` keyed by node id.

    Deep trees produce one state per open node; each holds a dense
    (m×m) inverse (m = the real rows of the standard form),
    so the cache holds at most ``capacity`` of them
    and silently drops the least recently used — a miss is never an
    error: that node's children still warm-start, from the basis-only
    state the tree node keeps (``BBNode.warm_basis``), and re-invert it.
    """

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, WarmStartState]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Optional[WarmStartState]:
        state = self._entries.get(key)
        if state is not None:
            self._entries.move_to_end(key)
        return state

    def put(self, key: Hashable, state: WarmStartState) -> None:
        self._entries[key] = state
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def pop(self, key: Hashable) -> Optional[WarmStartState]:
        return self._entries.pop(key, None)

    def clear(self) -> None:
        self._entries.clear()
