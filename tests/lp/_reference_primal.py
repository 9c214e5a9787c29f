"""The one-flip revised primal loop, kept verbatim as the test oracle.

``_iterate`` exactly as it stood when each bound flip took a whole
iteration of its own — a btran, the full ``Aᵀy`` pricing product, an
ftran and the two passes — together with the pricing rules' ``argmax``
picks it made then (:func:`_select`).  ``repro.lp.simplex._iterate``
takes a pricing pass's whole run of flips and then its pivot;
``tests/lp/test_primal_flip_runs.py`` holds it to this loop field by
field, bit for bit, with ``iterations`` (pricing passes) at most this
loop's (one per flip or pivot).  Test-only: nothing under ``src/``
imports this.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

import numpy as np

from repro.errors import SingularMatrixError
from repro.guard import budget as guard_budget
from repro.guard.watchdog import IterationWatchdog
from repro.lp import simplex
from repro.lp.pricing import BlandPricing, make_pricing
from repro.lp.result import LPStatus
from repro.lp.simplex import DEGENERATE_SWITCH, GUARD_EVERY, _Workspace


@contextmanager
def one_flip_loop():
    """Within the block, every primal solve runs this loop's ``_iterate``."""
    current = simplex._iterate
    simplex._iterate = _iterate
    try:
        yield
    finally:
        simplex._iterate = current


def _select(rule, reduced: np.ndarray, eligible: np.ndarray) -> Optional[int]:
    """The entering column each pricing rule's ``select`` picked then."""
    if rule.name == "bland":
        idx = np.nonzero(eligible)[0]
        return int(idx[0]) if idx.size else None
    if rule.name == "devex":
        if rule._weights is None or rule._weights.shape != reduced.shape:
            rule.reset(reduced.shape[0])
        reduced = reduced * reduced / rule._weights
    masked = np.where(eligible, reduced, -np.inf)
    best = int(np.argmax(masked))
    if masked[best] == -np.inf:
        return None
    return best


def _iterate(
    ws: _Workspace,
    c: np.ndarray,
    allowed: np.ndarray,
    max_iter: int,
    tol,
) -> LPStatus:
    """Primal simplex iterations until optimal/unbounded/limit."""
    options = ws.options
    pricing = make_pricing(options.pricing)
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
        entering = _select(rule, gain, eligible)
        if entering is None:
            # A fixed column reports the bound whose multiplier is live.
            fixed = ws.upper == 0.0
            ws.at_upper[fixed] = reduced[fixed] > 0.0
            ws.at_upper[ws.basis] = False
            return LPStatus.OPTIMAL

        w = ws.ftran(ws.a[:, entering])
        ws.hook.on_ratio_test(m)
        # x_B moves by −t·step as the entering column moves t off its bound.
        from_upper = ws.at_upper[entering]
        step = -w if from_upper else w
        upper_basic = ws.upper[ws.basis]
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
        if flip <= theta:
            ws.hook.on_ratio_test(m)
            ws.x_basic = np.clip(ws.x_basic - flip * step, 0.0, upper_basic)
            ws.at_upper[entering] = not from_upper
            ws.iterations += 1
            continue
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
        ws.iterations += 1

        if ws.updates_since_refactor >= options.refactor_interval:
            ws.refactorize()

    return LPStatus.ITERATION_LIMIT
