"""Escalation ladder: rescale → perturb → switch engine → exact fallback.

When an LP engine comes back without a usable status — iteration limit,
watchdog trip, numerical surrender — the ladder climbs through
progressively heavier remedies, each exactly auditable.  Every simplex
rung is a cold solve through the one LP door
(:func:`repro.lp.warm.solve_warm_or_cold`) on its own form:

1. **rescale** — positive row equilibration of the standard form
   (``D A x = D b``, each row by its largest structural entry).  The
   feasible set and optimum are unchanged; recovered duals are mapped
   back through ``D``.
2. **perturb** — a seeded, multiplicative ``O(1e-9)`` objective
   perturbation to break degenerate ties; the returned objective is
   re-evaluated against the *original* cost vector.
3. **switch engine** — hand the instance to the interior-point method,
   whose path-following iterations are immune to simplex cycling.
4. **exact fallback** — Bland's rule for the primal loop and a 10×
   budget: slow, and finite by the budget.

The ladder returns the first usable result — a terminal status, which
lets the caller make sound progress (proven infeasible/unbounded
included) — plus the rungs it climbed; if every rung fails it returns
the least-bad result so callers can still salvage an anytime answer.
Each climb emits a guard event.
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
from repro.lp.simplex import DEFAULT_OPTIONS, SimplexOptions
from repro.lp.warm import solve_warm_or_cold

#: Rung names in climb order (for reports and tests).
LADDER = ("rescale", "perturb", "switch_engine", "exact_fallback")

#: Relative size of the perturb rung's objective jitter.
PERTURBATION = 1e-9


@dataclass
class EscalationOutcome:
    """Result of one ladder climb."""

    result: LPResult
    #: Rungs attempted, in order ("" prefix-free names from LADDER).
    steps: List[str] = field(default_factory=list)

    @property
    def escalated(self) -> bool:
        return bool(self.steps)


def _note(step: str, status: LPStatus) -> None:
    ctx = _budget.active()
    if ctx is not None:
        ctx.note("escalate", step=step, status=status.value)


def rescale_standard_form(
    sf: StandardFormLP,
) -> Tuple[StandardFormLP, np.ndarray]:
    """Row-equilibrated copy plus the positive row scales used: each row
    by its largest structural entry (its ±1 slack would cap the scale)."""
    structural = np.abs(sf.a[:, : sf.n - sf.m])
    mag = np.max(structural, axis=1) if structural.size else np.zeros(sf.m)
    scale = np.where(mag > 0, mag, 1.0)
    scaled = replace(
        sf,
        a=sf.a / scale[:, None],
        b=sf.b / scale,
        c=sf.c.copy(),
    )
    return scaled, scale


def perturb_standard_form(sf: StandardFormLP, seed: int = 0) -> StandardFormLP:
    """Seeded multiplicative objective perturbation (tie-breaking)."""
    rng = np.random.default_rng(seed + 0x5EED)
    jitter = 1.0 + PERTURBATION * rng.uniform(0.5, 1.5, size=sf.c.shape[0])
    scale = max(1.0, float(np.max(np.abs(sf.c))) if sf.c.size else 1.0)
    additive = PERTURBATION * scale * rng.uniform(0.5, 1.5, size=sf.c.shape[0])
    return replace(sf, c=sf.c * jitter + additive)


def _cold(sf: StandardFormLP, options: SimplexOptions) -> LPResult:
    """A rung's solve: the one LP door, cold."""
    return solve_warm_or_cold(sf, None, cold_options=options).result


def escalate_lp(
    sf: StandardFormLP,
    options: Optional[SimplexOptions] = None,
    first: Optional[LPResult] = None,
    seed: int = 0,
) -> EscalationOutcome:
    """Climb the ladder for one standard-form LP.

    ``first`` is the already-failed baseline attempt (so callers don't
    pay for it twice); when omitted the ladder runs the plain solve as
    rung zero.  Deadline budgets still bind: the climb stops as soon as
    the active guard context reports an expired budget.
    """
    options = options or DEFAULT_OPTIONS
    steps: List[str] = []
    if first is None:
        first = _cold(sf, options)
    if first.status.terminal:
        return EscalationOutcome(result=first, steps=steps)
    best = first

    def better(candidate: LPResult, incumbent: LPResult) -> LPResult:
        # Prefer usable; among unusable keep the one with more progress.
        if candidate.status.terminal:
            return candidate
        if incumbent.status.terminal:
            return incumbent
        return candidate if candidate.iterations > incumbent.iterations else incumbent

    def expired() -> bool:
        ctx = _budget.active()
        return ctx is not None and ctx.deadline_hit()

    # Rung 1: row equilibration.
    if not expired():
        steps.append("rescale")
        scaled, scale = rescale_standard_form(sf)
        res = _cold(scaled, options)
        _note("rescale", res.status)
        if res.status.terminal:
            if res.duals is not None:
                # (DA)ᵀ y' = c  ⇒  y = D y' solves Aᵀ y = c... row i of
                # the scaled dual corresponds to 1/scale_i of the true.
                res.duals = res.duals / scale
            return EscalationOutcome(result=res, steps=steps)
        best = better(res, best)

    # Rung 2: seeded objective perturbation.
    if not expired():
        steps.append("perturb")
        res = _cold(perturb_standard_form(sf, seed=seed), options)
        _note("perturb", res.status)
        if res.status.terminal:
            if res.status is LPStatus.OPTIMAL and res.x_standard is not None:
                # Report the objective under the *original* costs.
                res.objective = sf.objective_value(res.x_standard)
            return EscalationOutcome(result=res, steps=steps)
        best = better(res, best)

    # Rung 3: switch engine — interior point.
    if not expired():
        steps.append("switch_engine")
        try:
            res = interior_point_solve(sf)
        except LinearAlgebraError:
            res = LPResult(status=LPStatus.NUMERICAL)
        _note("switch_engine", res.status)
        if res.status is LPStatus.OPTIMAL:
            return EscalationOutcome(result=res, steps=steps)
        best = better(res, best)

    # Rung 4: Bland's rule with a 10x budget — finite by the budget.
    if not expired():
        steps.append("exact_fallback")
        budget = options.max_iterations
        exact = replace(
            options,
            pricing="bland",
            max_iterations=None if budget is None else 10 * budget,
        )
        res = _cold(sf, exact)
        _note("exact_fallback", res.status)
        if res.status.terminal:
            return EscalationOutcome(result=res, steps=steps)
        best = better(res, best)

    return EscalationOutcome(result=best, steps=steps)
