"""Lockstep batched simplex: many small LPs advancing SIMD-style.

Paper §5.5: with device memory far exceeding one small LP's matrix,
"dozens of branch-and-cut nodes could be solved simultaneously by the
GPU" — given linear-algebra services that support batched operation.
Gurung & Ray [14] demonstrated exactly this: a *tableau* simplex whose
every step is applied to a whole batch of LPs in lockstep, which is the
natural SIMD shape — and, like them, the box ``0 ≤ x ≤ ub`` is kept
*outside* the tableau.

``solve_lp_batch`` takes k same-shape inequality-form LPs
(``max cᵀx, A x ≤ b, 0 ≤ x ≤ ub`` with ``b ≥ 0``, so ``x = 0`` is
feasible — true of every LP-relaxation batch the MIP solver produces
from sibling nodes) and runs a **bounded-variable** tableau simplex on
all of them at once.  The ``(k, m+1, n+m+1)`` tableau holds only the
``m`` real rows and the cost row; a ``(k, n+m)`` upper-bound array rides
beside it.  A variable at its upper bound is *complemented*
(``x_j → ub_j − x_j``: negate the column, shift the rhs and cost row),
so every nonbasic variable sits at 0 of its current orientation.

It starts where the cold door starts, by the one rule
:func:`repro.lp.warm.cold_start`.  ``b ≥ 0`` makes every slack basis
primal feasible, so a member with an unboxed positive cost starts primal
from it, and any other complements every boxed positive cost there (one
batched GEMV over those columns shifts the rhs), which makes it dual
feasible; no member zeroes a cost.  A member the start leaves primal
infeasible takes lockstep bounded **dual** rounds: the leaving row is
its largest bound violation (a basic variable above its upper bound is
complemented first, so it leaves at 0 like any other), and a long-step
ratio test passes boxed breakpoints as one flip run while the row stays
infeasible (:func:`_long_steps`).  A primal feasible member takes
**primal** rounds.  Both price on the one cost row.

A primal round takes the smallest of three ratio candidates: a basic
variable falling to 0, a basic variable rising to its upper bound, or
the entering variable reaching its own bound.  When the entering
variable's own bound wins, the step is a "bound flip": a masked vector
update, no pivot.  A flip leaves the basis and every other column alone,
so the flips the entering rule would take one after another are found in
one pass: the candidates in the cost row's stable sort (the ``argmin``
order), the rhs after each flip as a sequential prefix sum, the run
ending at the first candidate whose own bound does not strictly win its
ratio test — which then pivots in the same round.  A round is thus one
member's run of flips plus at most one pivot, and every member's primal
path is bit for bit that of the one-flip-per-round loop.  Members reach
optimality at different rounds and are frozen by masking; the loop runs
until all are terminal.  An LP with no inequality rows (``m = 0``) is
solved by the start alone, or found unbounded in one round.

The tableau's columns and rows are those of the member's own
``LinearProgram.to_standard_form()`` (structural columns, then one slack
per row; the box beside it as ``upper``), so the final basis, its
at-upper mask, duals and primal point are exported as they stand (see
:class:`BatchLPResult`) and seed warm re-solves directly.

The optional ``on_iteration(k, m, n + m)`` hook lets a device model
charge one batched kernel sequence per lockstep round (experiment E7) at
the true basis dimension ``m``; ``on_flip_run(k_f, m, L)`` adds the
round's flip scan when ``k_f`` members flipped (in either phase), ``L``
the longest run; ``on_start(k_c, m, F)`` the start's complement GEMV
when ``k_c`` members start with columns complemented, ``F`` the most.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.config import DEFAULT_TOLERANCES
from repro.errors import LPError, ShapeError
from repro.guard import budget as guard_budget
from repro.lp.problem import LinearProgram
from repro.lp.result import LPStatus
from repro.lp.warm import cold_start


@dataclass
class BatchLPResult:
    """Per-member outcomes of a batched solve.

    ``bases``/``at_upper``/``duals``/``x_standard`` are in the indexing
    of the member's own ``problem.to_standard_form()`` — its ``m`` rows,
    slack column ``n + r`` for row ``r`` — so an optimal member's answer
    seeds warm re-solves directly.
    """

    statuses: List[LPStatus]
    objectives: np.ndarray
    #: (k, n) primal solutions in the original variable space.
    x: np.ndarray
    #: Lockstep rounds executed (shared across the batch); a round is a
    #: member's run of bound flips plus at most one pivot.
    iterations: int
    #: (k, m) final basic-variable indices.
    bases: Optional[np.ndarray] = None
    #: (k, n + m) nonbasic columns the engine ended complemented, i.e.
    #: sitting at their upper bound.
    at_upper: Optional[np.ndarray] = None
    #: (k, m) row duals ``y = c_B B⁻¹``, the cost row's slack entries;
    #: meaningful only for optimal members.
    duals: Optional[np.ndarray] = None
    #: (k, n + m) standard-form primal solutions (optimal members only).
    x_standard: Optional[np.ndarray] = None

    @property
    def all_ok(self) -> bool:
        """True when every member proved optimality."""
        return all(s is LPStatus.OPTIMAL for s in self.statuses)


def lockstep_compatible(lp: LinearProgram) -> bool:
    """True when ``lp`` meets the lockstep preconditions.

    Inequality form, ``lb == 0`` and ``b ≥ 0`` (``x = 0`` feasible) —
    the per-problem requirements of :func:`solve_lp_batch`.  Shape and
    finite-ub-pattern agreement across the batch is the caller's (the
    serving layer's bucketing) responsibility.
    """
    return (
        lp.num_eq_rows == 0
        and not np.any(lp.lb != 0.0)
        and (lp.b_ub is None or not np.any(lp.b_ub < 0))
    )


def _stack_batch(lps: List[LinearProgram]):
    """Stack inequality-form LPs into batched ``(a, b, c, ub)`` arrays."""
    if not lps:
        raise LPError("empty LP batch")
    n = lps[0].n
    m = lps[0].num_ub_rows
    finite_ub = np.isfinite(lps[0].ub)
    for lp in lps:
        if lp.n != n or lp.num_ub_rows != m:
            raise ShapeError("all batch members must share (m, n)")
        if not lockstep_compatible(lp):
            raise LPError("batched simplex needs inequality rows, lb == 0 and b ≥ 0")
        # The shared iteration cap counts the finite bounds, so the
        # pattern must be uniform across the batch.
        if not np.array_equal(np.isfinite(lp.ub), finite_ub):
            raise ShapeError("batch members must share the finite-ub pattern")

    k = len(lps)
    a = np.stack([lp.a_ub for lp in lps]) if m else np.zeros((k, 0, n))
    b = np.stack([lp.b_ub for lp in lps]) if m else np.zeros((k, 0))
    c = np.stack([lp.c for lp in lps])
    ub = np.stack([lp.ub for lp in lps])
    return a, b, c, ub


#: Run positions scanned per block, as elements of the ``(members,
#: positions, m + 1)`` column stack: bounds host memory on wide rows.
_SCAN_ELEMENTS = 1 << 20
#: Positions in a round's first block; a longer run continues in full
#: blocks.  A pivot-only round then scans 16 positions, not the row.
_FIRST_BLOCK = 16


def _run_prefix(rhs, col, ub):
    """The rhs before and after each flip of a run, ``(g, w + 1, rows)``:
    ``cumsum`` of ``[rhs, −col₁·ub₁, …]`` rounds exactly as subtracting
    ``col_q·ub_q`` flip by flip does."""
    prefix = np.empty((col.shape[0], col.shape[1] + 1, col.shape[2]))
    prefix[:, 0] = rhs
    np.negative(col * ub[:, :, None], out=prefix[:, 1:])
    return prefix.cumsum(axis=1, out=prefix)


def _scan_runs(tab, upper, flip_ub, basis, act, order, cand, tol):
    """Find each member's run of bound flips and the step that ends it.

    A flip changes the rhs and its own column only, so the candidates the
    one-flip loop would take next are the cost row's stable sort
    (``order``, ``cand`` marking reduced costs below ``-tol``) and the
    rhs after each flip is a sequential prefix sum — ``cumsum`` of
    ``[rhs, −col_q·ub_q, …]`` rounds exactly as ``rhs − col_q·ub_q`` does
    flip by flip.  At each run position the three-way ratio test is the
    loop's own (same operands, same ``argmin`` tie-break); a run ends at
    the first candidate whose own bound does not strictly win it.
    ``flip_ub`` is ``upper`` with 0 for ∞ (such a candidate never flips).

    Returns ``(run, rhs, choice, no_step)`` per member of ``act``: flips
    taken, the rhs after them (cost row included), and the ratio test of
    the stopping position — meaningful where ``cand`` holds there.
    """
    m, rows = basis.shape[1], tab.shape[1]
    span = order.shape[1]
    rhs = tab[act, :, -1]                              # (a, rows)
    basic_ub = upper[act[:, None], basis[act]]         # (a, m)
    run, choice, no_step = np.zeros((3, act.size), dtype=np.int64)
    lanes = np.arange(act.size)
    going = lanes
    start = 0
    while going.size:
        width = max(1, _SCAN_ELEMENTS // (going.size * rows))
        if not start:
            width = min(width, _FIRST_BLOCK)  # most runs end within it
        stop = min(span, start + width)
        w = stop - start
        t, q = act[going, None], order[going, start:stop]
        col = tab[t, :, q]                             # (g, w, rows)
        ub = upper[t, q]
        prefix = _run_prefix(rhs[going], col, flip_ub[t, q])
        here, col_m = prefix[:, :w, :m], col[:, :, :m]
        room = basic_ub[going, None] - here
        ratios = np.empty((going.size, w, 2 * m + 1))
        ratios.fill(np.inf)
        np.divide(here, col_m, out=ratios[..., :m], where=col_m > tol.pivot)
        np.divide(
            room, -col_m, out=ratios[..., m:-1],
            where=(col_m < -tol.pivot) & np.isfinite(room),
        )
        ratios[..., -1] = ub
        pick = ratios.argmin(axis=2)                   # (g, w)
        # A closing False column: ``end`` is w when the whole block flipped.
        flips = np.zeros((going.size, w + 1), dtype=bool)
        np.logical_and(
            pick == 2 * m, cand[going, start:stop] & np.isfinite(ub), out=flips[:, :w]
        )
        end = flips.argmin(axis=1)
        run[going] += end
        rhs[going] = prefix[lanes[: going.size], end]
        ends = end < w
        at = end[ends]
        pick_at = pick[ends, at]
        choice[going[ends]] = pick_at
        no_step[going[ends]] = np.isinf(ratios[ends, at, pick_at])
        going = going[~ends] if stop < span else going[:0]
        start = stop
    return run, rhs, choice, no_step.astype(bool)


def _complement_rows(tab, upper, flipped, basis, t, row):
    """Complement the basic variable of ``row`` in members ``t`` in place
    (it is leaving at its upper bound), so it leaves at 0 like any other."""
    cols = tab.shape[2] - 1
    j = basis[t, row]
    tab[t, row, :] *= -1.0
    tab[t, row, cols] += upper[t, j]
    tab[t, row, j] = 1.0
    flipped[t, j] ^= True


def _long_steps(tab, upper, flip_ub, act, rows, tol):
    """The bounded dual ratio test of each member's leaving row.

    ``rows`` holds a negative rhs (the row's basic variable below 0 in
    its current orientation); a candidate is a column with ``α < 0``
    there, its breakpoint the cost row's entry over ``−α``.  In
    breakpoint order (stable sort), a boxed candidate is passed — flipped
    to its other bound, which shrinks the row's infeasibility by
    ``−α·ub`` — while the row stays infeasible without it; the first
    that cannot be passed enters.  The rhs after the flips is
    :func:`_run_prefix`'s, as in :func:`_scan_runs`.

    Returns ``(run, rhs, order, found)`` per member of ``act``: flips
    taken (the first ``run`` of ``order``; ``order[run]`` enters), the
    rhs after them (every row), and whether any candidate could enter.
    None can only be rounding: ``b ≥ 0`` makes ``x = 0`` feasible, so no
    row proves a member infeasible (the caller reports it NUMERICAL).
    """
    cols = tab.shape[2] - 1
    lanes = np.arange(act.size)[:, None]
    alpha = tab[act, rows, :cols]
    cand = alpha < -tol.pivot
    ratios = np.full(alpha.shape, np.inf)
    np.divide(np.maximum(tab[act, -1, :cols], 0.0), -alpha, out=ratios, where=cand)
    span = max(1, int(cand.sum(axis=1).max()))
    order = ratios.argsort(axis=1, kind="stable")[:, :span]
    ok = cand[lanes, order]
    reach = np.zeros(order.shape)
    np.multiply(-alpha[lanes, order], upper[act[:, None], order], out=reach, where=ok)
    slope = -tab[act, rows, cols][:, None] - reach.cumsum(axis=1)
    stop = ok & (slope <= tol.feasibility)
    found = stop.any(axis=1)
    run = stop.argmax(axis=1)
    rhs = tab[act, :, cols]
    longest = int(run.max())
    if longest:
        t, q = act[:, None], order[:, :longest]
        rhs = _run_prefix(rhs, tab[t, :, q], flip_ub[t, q])[lanes[:, 0], run]
    return run, rhs, order, found


def _flip_runs(tab, flipped, act, order, run, rhs):
    """Complement each member's first ``run`` columns of ``order`` and set
    its rhs (cost rows included) to ``rhs``; the basis is unchanged.
    Returns how many members flipped and the longest run."""
    lane, pos = (np.arange(order.shape[1]) < run[:, None]).nonzero()
    if not lane.size:
        return 0, 0
    t, q = act[lane], order[lane, pos]
    tab[t, :, q] = -tab[t, :, q]
    flipped[t, q] ^= True
    tab[act, :, -1] = rhs
    return int(np.count_nonzero(run)), int(run.max())


def solve_lp_batch(
    lps: List[LinearProgram],
    max_iterations: Optional[int] = None,
    on_iteration: Optional[Callable[[int, int, int], None]] = None,
    on_flip_run: Optional[Callable[[int, int, int], None]] = None,
    on_start: Optional[Callable[[int, int, int], None]] = None,
) -> BatchLPResult:
    """Solve a batch of same-shape LPs by lockstep bounded tableau simplex.

    ``on_start(k_c, m, F)`` is called once when ``k_c`` members start
    with columns complemented, ``F`` the most of them;
    ``on_iteration(k, m, n + m)`` at the top of every round with the
    active width; ``on_flip_run(k_f, m, L)`` once more in a round where
    ``k_f`` members flipped, ``L`` the longest run.
    """
    a, b, c, ub = _stack_batch(lps)
    k, m, n = a.shape
    cols = n + m  # structural + slacks
    tol = DEFAULT_TOLERANCES

    if max_iterations is None:
        max_iterations = 50 + 20 * (m + int(np.isfinite(ub[0]).sum()) + n)

    # The door's cold start; ``b ≥ 0`` means no member zeroes a cost.
    # Tableau: rows 0..m-1 are constraints [A | I | b]; row m is the cost
    # row [-reduced costs | objective].
    upper = np.full((k, cols), np.inf)
    upper[:, :n] = ub
    raised = cold_start(c, upper, b)[0]
    tab = np.zeros((k, m + 1, cols + 1))
    tab[:, :m, :n] = a
    tab[:, :m, n:cols] = np.eye(m)
    tab[:, :m, cols] = b
    tab[:, m, :n] = -c  # maximize: optimal when no negative entry
    basis = np.tile(np.arange(n, cols), (k, 1))
    flip_ub = np.where(np.isfinite(upper), upper, 0.0)
    # flipped[t, j]: column j currently stands for ub_j - x_j.
    flipped = np.zeros((k, cols), dtype=bool)
    # in_dual[t]: member t is primal infeasible and takes dual rounds.
    in_dual = np.zeros(k, dtype=bool)
    if raised.any():
        # The complement pass: one batched GEMV over the complemented
        # columns shifts every row's rhs, then their columns negate.
        weight = np.where(raised, ub, 0.0)
        tab[:, :, cols] -= np.add.reduce(tab[:, :, :n] * weight[:, None, :], axis=2)
        tab[:, :, :n] *= np.where(raised, -1.0, 1.0)[:, None, :]
        flipped[:, :n] = raised
        in_dual = (tab[:, :m, cols] < -tol.feasibility).any(axis=1)
        if on_start is not None:
            counts = raised.sum(axis=1)
            on_start(int(np.count_nonzero(counts)), m, int(counts.max()))

    active = np.ones(k, dtype=bool)
    unbounded = np.zeros(k, dtype=bool)
    # numerical[t]: a dual round found no entering candidate, which
    # ``b ≥ 0`` rules out in exact arithmetic (see _long_steps).
    numerical = np.zeros(k, dtype=bool)
    lanes = np.arange(max(k, cols))
    member = lanes[:k, None]
    iterations = 0
    timed_out = False
    guard_ctx = guard_budget.active()
    dualing = bool(in_dual.any())

    act = np.arange(k)
    while act.size and iterations < max_iterations:
        if guard_ctx is not None and guard_ctx.deadline_hit():
            # Cooperative stop: still-active members surrender together
            # (the lockstep batch shares one clock).
            timed_out = True
            break
        if on_iteration is not None:
            on_iteration(act.size, m, cols)
        dual = act[:0]
        if dualing:
            # A member primal infeasible at its basis takes a dual round,
            # leaving on its largest bound violation; the rest (those
            # feasible at last included) take the primal round below.
            dual = act[in_dual[act]]
            x_basic = tab[dual, :m, cols]
            violation = np.maximum(-x_basic, x_basic - upper[dual[:, None], basis[dual]])
            rows = violation.argmax(axis=1)
            worst = violation[lanes[: dual.size], rows]
            in_dual[dual[worst <= tol.feasibility]] = False
            keep = worst > tol.feasibility
            dual, rows = dual[keep], rows[keep]
            above = x_basic[keep][lanes[: dual.size], rows] > 0.0
            dualing = bool(dual.size)
            act = act[~in_dual[act]]
        flipped_members, longest = 0, 0
        piv = enter = leave = act[:0]
        if act.size:
            cost_rows = tab[act, m, :cols]
            # The one-flip loop's argmin order (first minimum first), cut
            # after the last candidate any member has.
            order = cost_rows.argsort(axis=1, kind="stable")
            cand = cost_rows[lanes[: act.size, None], order] < -tol.optimality
            keep = cand[:, 0]
            active[act] = keep
            span = int(cand.sum(axis=1).max())
            act, order, cand = act[keep], order[keep, :span], cand[keep, :span]
        if act.size:
            run, rhs, choice, no_step = _scan_runs(
                tab, upper, flip_ub, basis, act, order, cand, tol
            )
            # Each flipped variable crosses its whole box: complement its
            # column, the rhs and cost row take the run's prefix sum.
            flipped_members, longest = _flip_runs(tab, flipped, act, order, run, rhs)
            # A member whose run used up its candidates is optimal next
            # round; any other takes the step that stopped its run.
            steps = (run < span) & cand[lanes[: act.size], np.minimum(run, span - 1)]
            ray = act[steps & no_step]
            unbounded[ray] = True
            active[ray] = False
            take = steps & ~no_step
            piv = act[take]
            leave = choice[take] % m
            at_bound = choice[take] >= m
            if at_bound.any():
                # Leaving variable exits at its upper bound.
                _complement_rows(tab, upper, flipped, basis, piv[at_bound], leave[at_bound])
            enter = order[take, run[take]]
        if dual.size:
            if above.any():
                _complement_rows(tab, upper, flipped, basis, dual[above], rows[above])
            run, rhs, order, found = _long_steps(tab, upper, flip_ub, dual, rows, tol)
            numerical[dual[~found]] = True
            active[dual[~found]] = False
            moved, most = _flip_runs(tab, flipped, dual, order, run, rhs)
            flipped_members, longest = flipped_members + moved, max(longest, most)
            piv = np.concatenate([piv, dual[found]])
            leave = np.concatenate([leave, rows[found]])
            enter = np.concatenate([enter, order[lanes[: dual.size], run][found]])
        if flipped_members and on_flip_run is not None:
            on_flip_run(flipped_members, m, longest)
        if piv.size:
            # Normalize pivot rows, then eliminate the pivot column from
            # every other row, batched.
            tab[piv, leave, :] /= tab[piv, leave, enter][:, None]
            pivot_rows = tab[piv, leave, :]            # (p, cols+1)
            col_vals = tab[piv, :, enter]              # (p, rows)
            col_vals[lanes[: piv.size], leave] = 0.0
            tab[piv] -= col_vals[:, :, None] * pivot_rows[:, None, :]
            basis[piv, leave] = enter
        act = active.nonzero()[0]
        iterations += bool(flipped_members or piv.size)

    tail_status = LPStatus.TIME_LIMIT if timed_out else LPStatus.ITERATION_LIMIT
    statuses: List[LPStatus] = []
    for t in range(k):
        if unbounded[t]:
            statuses.append(LPStatus.UNBOUNDED)
        elif numerical[t]:
            statuses.append(LPStatus.NUMERICAL)
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


def solve_lp_batch_on_device(lps: List[LinearProgram], device) -> BatchLPResult:
    """Solve a batch charging one batched kernel sequence to ``device``.

    The MAGMA-style cost shape of §5.5 (and experiment E7): one batched
    factorization up front, then two batched triangular solves plus one
    batched GEMM per lockstep round, each sized by the number of
    still-active members and the basis dimension ``m`` (bounds are not
    rows).  A round in which ``k_f`` members flipped pays one launch more
    for the scan: the run's prefix sum as a batched triangular product
    over the ``L`` flipped columns of the longest run.  ``device`` is a
    :class:`repro.device.gpu.Device` (anything with its ``_charge``);
    numerics are exact regardless of the cost model.
    """
    from repro.device import kernels as K

    primed = False

    def on_iteration(k: int, m: int, n: int) -> None:
        nonlocal primed
        if not primed:
            device._charge(K.batched_getrf_kernel(k, m), None)
            primed = True
        device._charge(K.batched_trsv_kernel(k, m), None)
        device._charge(K.batched_trsv_kernel(k, m), None)
        device._charge(K.batched_gemm_kernel(k, 1, n, m), None)

    def on_flip_run(k: int, m: int, run: int) -> None:
        device._charge(K.batched_gemm_kernel(k, m + 1, run, run), None)

    def on_start(k: int, m: int, columns: int) -> None:
        device._charge(K.batched_gemm_kernel(k, m + 1, 1, columns), None)

    return solve_lp_batch(
        lps, on_iteration=on_iteration, on_flip_run=on_flip_run, on_start=on_start
    )
