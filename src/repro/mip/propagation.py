"""Row-activity domain propagation over a stack of boxes.

For a ≤-row ``a·x ≤ b`` the smallest activity a box allows is
``Σ_{a_j>0} a_j lb_j + Σ_{a_j<0} a_j ub_j``; if it exceeds ``b`` the box
holds no point, and otherwise each variable's bound tightens against the
row's residual slack: ``ub_j ≤ lb_j + slack/a_j`` where ``a_j > 0``,
``lb_j ≥ ub_j + slack/a_j`` where ``a_j < 0``.  Equality rows propagate in
both directions; integer bounds round inward.

One pass is a *Jacobi* step over every box of a ``(k, n)`` stack at once
— the GPU-parallel scheme of Sofranac, Gleixner & Pokutta (2020), also
the bulk bound propagation inside Çördük et al.'s fix-and-propagate:
every row's min activity against the box the pass started from, one
candidate bound per nonzero ``(row, column)``, reduced per column.  A box that turns out empty is frozen by mask, so it never stops
its neighbours' propagation.  The branch-and-bound tree propagates each
round's children through one :class:`Propagator` (the §3.3 probing the
hybrid design hosts), the portfolio's fix-and-propagate every
threshold's box.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.lp.simplex import NULL_HOOK, CostHook
from repro.mip.problem import MIPProblem

#: Passes per call; a pass that tightens nothing ends the call early.
PROPAGATION_PASSES = 4
#: Slack below which propagation treats a row or a bound as violated.
PROPAGATION_TOL = 1e-7


class _Side:
    """The nonzeros of one sign, grouped by column, and the bound they
    tighten: positive entries bound ``ub`` from ``lb``, negative ones
    ``lb`` from ``ub``.  ``columns`` hold at least one such entry."""

    def __init__(self, a: np.ndarray, upper: bool, integer: np.ndarray):
        cols, rows = np.nonzero((a > 0 if upper else a < 0).T)
        self.rows, self.cols = rows, cols
        self.inv = 1.0 / a[rows, cols]
        self.columns, self.starts = np.unique(cols, return_index=True)
        self.integer = integer[self.columns]
        self.reduce, self.round, self.better, self.nudge = (
            (np.minimum, np.floor, np.less, PROPAGATION_TOL)
            if upper
            else (np.maximum, np.ceil, np.greater, -PROPAGATION_TOL)
        )

    def tighten(self, source: np.ndarray, slack: np.ndarray) -> np.ndarray:
        """Each column's tightest candidate, rounded inward, ``(k, columns)``."""
        bound = self.reduce.reduceat(
            source[:, self.cols] + slack[:, self.rows] * self.inv, self.starts, axis=1
        )
        bound[:, self.integer] = self.round(bound[:, self.integer] + self.nudge)
        return bound


class Propagator:
    """Bound propagation through one problem's rows, built once.

    The ≤-row system — the ≤-rows, then each equality row in both directions
    — is kept as ``rows`` / ``rhs`` and split into ``A⁺`` and ``A⁻`` with
    the masked reciprocals of its nonzeros and the rhs floor, so a call is
    arithmetic only.  ``m`` counts the rows of that form.
    """

    def __init__(self, problem: MIPProblem):
        blocks = [(problem.a_ub, problem.b_ub)]
        if problem.a_eq is not None:
            blocks += [(problem.a_eq, problem.b_eq), (-problem.a_eq, -problem.b_eq)]
        blocks = [(a, b) for a, b in blocks if a is not None]
        a = np.vstack([a for a, _ in blocks]) if blocks else np.zeros((0, problem.n))
        self.rhs = np.concatenate([b for _, b in blocks]) if blocks else np.zeros(0)
        self.rows = a
        self.m, self.n = a.shape
        #: ``[A⁺ A⁻]ᵀ``: min activities are ``[lb ub]`` against it.
        self.split_t = np.vstack((np.where(a > 0, a, 0.0).T, np.where(a < 0, a, 0.0).T))
        self.support_t = self.split_t != 0.0
        self.floor = -PROPAGATION_TOL * (1.0 + np.abs(self.rhs))
        self.up = _Side(a, True, problem.integer)
        self.down = _Side(a, False, problem.integer)

    def __call__(
        self, lb: np.ndarray, ub: np.ndarray, hook: CostHook = NULL_HOOK
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Propagate a ``(k, n)`` stack of boxes; ``(lb, ub, feasible)``.

        The inputs are not written.  A member reported infeasible holds
        no point of the rows; its box is the one it was frozen at.  A
        bound that comes in infinite leaves infinite — which bounds are
        finite fixes the column layout of every node's LP form — though
        what it tightened to bounds the others in the meantime.  Every
        pass that runs — the last one, which tightens nothing, too — is
        one launch on ``hook``.
        """
        tol = PROPAGATION_TOL
        lb = np.array(lb, dtype=np.float64, ndmin=2)
        ub = np.array(ub, dtype=np.float64, ndmin=2)
        free = lb == -np.inf, ub == np.inf
        unbounded = free[0].any() or free[1].any()
        live = np.ones(len(lb), dtype=bool)
        for _ in range(PROPAGATION_PASSES if self.m else 0):
            live &= ~(lb > ub + tol).any(axis=1)
            if not live.any():
                break
            hook.on_propagation(len(lb), self.m, self.n)
            low, high, slack = self._slack(lb, ub, unbounded)
            live &= ~(slack < self.floor).any(axis=1)
            # Jacobi: both sides read the box the pass started from.
            bounds = self.up.tighten(low, slack), self.down.tighten(high, slack)
            changed = False
            for side, target, bound in zip((self.up, self.down), (ub, lb), bounds):
                current = target[:, side.columns]
                tighter = side.better(bound, current - side.nudge) & live[:, None]
                current[tighter] = bound[tighter]
                target[:, side.columns] = current
                changed = changed or tighter.any()
            if not changed:
                break
        live &= ~(lb > ub + tol).any(axis=1)
        lb[free[0]], ub[free[1]] = -np.inf, np.inf
        return lb, ub, live

    def _slack(self, lb: np.ndarray, ub: np.ndarray, unbounded: bool):
        """``b − min activity`` per (member, row), and the bounds it was
        taken at.  With infinite bounds in the stack, a row one leaves
        unbounded below reads ``+inf`` and tightens nothing, and the
        infinite bounds read 0."""
        box = np.concatenate((lb, ub), axis=1)
        if unbounded:
            infinite = np.isinf(box)
            open_rows = infinite @ self.support_t
            box = np.where(infinite, 0.0, box)
        # Summed by a ufunc, not BLAS: each member's sums run in one order
        # whatever the stack, so a box propagates alone as beside others.
        slack = self.rhs - np.add.reduce(box[:, :, None] * self.split_t, axis=1)
        if unbounded:
            slack[open_rows] = np.inf
        return box[:, : self.n], box[:, self.n :], slack
