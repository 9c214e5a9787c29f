"""Escalation ladder: rescale → switch engine.

When an LP comes back from the one LP door
(:func:`repro.lp.warm.solve_warm_or_cold`) without a usable status —
iteration limit, watchdog trip, numerical surrender — the ladder tries
the remedies the door cannot apply itself, each exactly auditable:

1. **rescale** — a cold solve through the door of the row-equilibrated
   form (``D A x = D b``, each row by its largest structural entry).
   The feasible set and optimum are unchanged; recovered duals are
   mapped back through ``D``.
2. **switch engine** — hand the instance to the interior-point method,
   whose path-following iterations are immune to simplex cycling.

Degeneracy is no rung: each simplex loop owns its stall rule (DESIGN.md
"Degeneracy lives in the loops").  The ladder returns the first usable
result — a terminal status (proven infeasible/unbounded included) — plus
the rungs it climbed; if every rung fails it returns the least-bad
result so callers can still salvage an anytime answer.  Each climb emits
a guard event.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import LinearAlgebraError
from repro.guard import budget as _budget
from repro.lp.interior_point import interior_point_solve
from repro.lp.problem import StandardFormLP
from repro.lp.result import LPResult, LPStatus
from repro.lp.simplex import CostHook, SimplexOptions
from repro.lp.warm import solve_warm_or_cold

#: Rung names in climb order (for reports and tests).
LADDER = ("rescale", "switch_engine")


@dataclass
class EscalationOutcome:
    """Result of one ladder climb."""

    result: LPResult
    #: Rungs attempted, in order ("" prefix-free names from LADDER).
    steps: List[str] = field(default_factory=list)
    #: Iterations each rung in ``steps`` ran, in order (the baseline
    #: attempt is not a rung): what a caller counts and prices.
    iterations: List[int] = field(default_factory=list)

    @property
    def escalated(self) -> bool:
        return bool(self.steps)


def rescale_standard_form(sf: StandardFormLP) -> Tuple[StandardFormLP, np.ndarray]:
    """Row-equilibrated copy plus the positive row scales used: each row
    by its largest structural entry (its ±1 slack would cap the scale)."""
    structural = np.abs(sf.a[:, : sf.n - sf.m])
    mag = np.max(structural, axis=1) if structural.size else np.zeros(sf.m)
    scale = np.where(mag > 0, mag, 1.0)
    return replace(sf, a=sf.a / scale[:, None], b=sf.b / scale, c=sf.c.copy()), scale


def escalate_lp(
    sf: StandardFormLP,
    hook: CostHook,
    options: Optional[SimplexOptions] = None,
    first: Optional[LPResult] = None,
) -> EscalationOutcome:
    """Climb the ladder for one standard-form LP.

    ``hook`` is the caller's meter: the rung-zero solve and the rescale
    rung run through the door on it, so they charge where the caller's
    own LPs do.  The interior-point rung has no cost hook and runs
    unpriced.  ``first`` is the already-failed baseline attempt (so
    callers don't pay for it twice); when omitted the ladder runs the
    plain solve as rung zero.  Deadline budgets still bind: the climb
    stops as soon as the active guard context reports an expired budget.
    """

    def rescale() -> LPResult:
        scaled, scale = rescale_standard_form(sf)
        res = solve_warm_or_cold(scaled, None, hook, cold_options=options).result
        if res.duals is not None:
            # (DA)ᵀ y' = c: row i of the scaled dual is 1/scale_i of the true.
            res.duals = res.duals / scale
        return res

    def switch_engine() -> LPResult:
        try:
            return interior_point_solve(sf)
        except LinearAlgebraError:
            return LPResult(status=LPStatus.NUMERICAL)

    steps: List[str] = []
    iterations: List[int] = []
    if first is None:
        first = solve_warm_or_cold(sf, None, hook, cold_options=options).result
    tried = [first]
    ctx = _budget.active()
    for step, rung in zip(LADDER, (rescale, switch_engine)):
        if tried[-1].status.terminal or (ctx is not None and ctx.deadline_hit()):
            break
        steps.append(step)
        tried.append(rung())
        iterations.append(tried[-1].iterations)
        if ctx is not None:
            ctx.note("escalate", step=step, status=tried[-1].status.value)
    if tried[-1].status.terminal:
        return EscalationOutcome(result=tried[-1], steps=steps, iterations=iterations)
    # None usable: the one with the most progress (the earliest of equals).
    return EscalationOutcome(
        result=max(tried, key=lambda res: res.iterations),
        steps=steps,
        iterations=iterations,
    )
