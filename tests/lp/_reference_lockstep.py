"""The one-flip-per-round lockstep loop, kept verbatim as the test oracle.

``solve_lp_batch`` exactly as it stood when a lockstep round took at
most one step per member: a bound flip *or* a pivot.  The engine in
``repro.lp.batch_simplex`` takes a member's whole run of flips and then
its pivot in one round; ``tests/lp/test_batch_simplex.py`` holds it to
this loop field by field, bit for bit, with ``iterations`` (rounds) at
most this loop's.  Test-only: nothing under ``src/`` imports this.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.config import DEFAULT_TOLERANCES
from repro.guard import budget as guard_budget
from repro.lp.batch_simplex import BatchLPResult, _stack_batch
from repro.lp.problem import LinearProgram
from repro.lp.result import LPStatus


def solve_lp_batch(
    lps: List[LinearProgram],
    max_iterations: Optional[int] = None,
    on_iteration: Optional[Callable[[int, int, int], None]] = None,
) -> BatchLPResult:
    """Solve a batch of same-shape LPs by lockstep bounded tableau simplex."""
    a, b, c, ub = _stack_batch(lps)
    k, m, n = a.shape
    cols = n + m  # structural + slacks
    tol = DEFAULT_TOLERANCES

    if max_iterations is None:
        max_iterations = 50 + 20 * (m + int(np.isfinite(ub[0]).sum()) + n)

    # Tableau: rows 0..m-1 are constraints [A | I | b]; row m is the cost
    # row [-reduced costs | objective].  Slack basis start.
    tab = np.zeros((k, m + 1, cols + 1))
    tab[:, :m, :n] = a
    tab[:, :m, n:cols] = np.eye(m)
    tab[:, :m, cols] = b
    tab[:, m, :n] = -c  # maximize: optimal when no negative entry
    basis = np.tile(np.arange(n, cols), (k, 1))
    upper = np.full((k, cols), np.inf)
    upper[:, :n] = ub
    # flipped[t, j]: column j currently stands for ub_j - x_j.
    flipped = np.zeros((k, cols), dtype=bool)

    active = np.ones(k, dtype=bool)
    unbounded = np.zeros(k, dtype=bool)
    batch_ids = np.arange(k)
    member = batch_ids[:, None]
    ratios = np.empty((k, 2 * m + 1))
    iterations = 0
    timed_out = False
    guard_ctx = guard_budget.active()

    act = batch_ids
    while act.size and iterations < max_iterations:
        if guard_ctx is not None and guard_ctx.deadline_hit():
            # Cooperative stop: still-active members surrender together
            # (the lockstep batch shares one clock).
            timed_out = True
            break
        if on_iteration is not None:
            on_iteration(act.size, m, cols)
        cost_rows = tab[:, m, :cols]
        entering = cost_rows.argmin(axis=1)
        active &= cost_rows[batch_ids, entering] < -tol.optimality
        act = active.nonzero()[0]
        if not act.size:
            break

        # Lockstep three-way ratio test: basic falls to 0 | basic rises
        # to its bound | entering reaches its own bound.
        col = tab[batch_ids, :m, entering]             # (k, m) pivot columns
        rhs = tab[:, :m, cols]                         # (k, m)
        room = upper[member, basis] - rhs
        falls = col > tol.pivot
        rises = (col < -tol.pivot) & np.isfinite(room)
        ratios.fill(np.inf)
        np.divide(rhs, col, out=ratios[:, :m], where=falls)
        np.divide(room, -col, out=ratios[:, m:-1], where=rises)
        ratios[:, -1] = upper[batch_ids, entering]
        choice = ratios.argmin(axis=1)
        no_step = np.isinf(ratios[batch_ids, choice])
        unbounded |= active & no_step
        active &= ~no_step
        act = active.nonzero()[0]
        if not act.size:
            break

        bound_flip = choice[act] == 2 * m
        flip = act[bound_flip]
        if flip.size:
            # Entering variable crosses its whole box: complement its
            # column (rhs and cost row shift with it), basis unchanged.
            q = entering[flip]
            col_q = tab[flip, :, q]                    # (f, m+1)
            tab[flip, :, cols] -= col_q * upper[flip, q][:, None]
            tab[flip, :, q] = -col_q
            flipped[flip, q] ^= True
        piv = act[~bound_flip]
        if piv.size:
            leave = choice[piv] % m
            at_bound = choice[piv] >= m
            up, up_row = piv[at_bound], leave[at_bound]
            if up.size:
                # Leaving variable exits at its upper bound: complement
                # it in place first, so it leaves at 0 like any other.
                j = basis[up, up_row]
                tab[up, up_row, :] *= -1.0
                tab[up, up_row, cols] += upper[up, j]
                tab[up, up_row, j] = 1.0
                flipped[up, j] ^= True
            enter = entering[piv]
            # Normalize pivot rows, then eliminate the pivot column from
            # every other row, batched.
            tab[piv, leave, :] /= tab[piv, leave, enter][:, None]
            pivot_rows = tab[piv, leave, :]            # (p, cols+1)
            col_vals = tab[piv, :, enter]              # (p, m+1)
            col_vals[np.arange(piv.size), leave] = 0.0
            tab[piv] -= col_vals[:, :, None] * pivot_rows[:, None, :]
            basis[piv, leave] = enter
        iterations += 1

    tail_status = LPStatus.TIME_LIMIT if timed_out else LPStatus.ITERATION_LIMIT
    statuses: List[LPStatus] = []
    for t in range(k):
        if unbounded[t]:
            statuses.append(LPStatus.UNBOUNDED)
        elif active[t]:
            statuses.append(tail_status)
        else:
            statuses.append(LPStatus.OPTIMAL)
    optimal = np.array([s is LPStatus.OPTIMAL for s in statuses])

    # ``held`` is every column's value in its current orientation;
    # undoing the complements gives x.
    held = np.zeros((k, cols))
    held[member, basis] = tab[:, :m, cols]
    x_standard = np.where(flipped, upper - held, held)
    x_standard[~optimal] = 0.0
    x = x_standard[:, :n].copy()
    objectives = np.full(k, np.nan)
    for t in optimal.nonzero()[0]:
        objectives[t] = float(c[t] @ x[t])
    at_upper = flipped.copy()
    at_upper[member, basis] = False
    return BatchLPResult(
        statuses=statuses,
        objectives=objectives,
        x=x,
        iterations=iterations,
        bases=basis,
        at_upper=at_upper,
        duals=tab[:, m, n:cols].copy(),
        x_standard=x_standard,
    )
