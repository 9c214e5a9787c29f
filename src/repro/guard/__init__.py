"""repro.guard — solver health: sanitation, watchdogs, budgets, escalation.

The fault-tolerance layer (:mod:`repro.faults`) covers *hardware and
process* failures; this package covers *numerical and time-budget*
failures, the other way solves go wrong in production:

- **problem sanitizer** (:mod:`repro.guard.sanitize`): validate/repair
  LP/MIP inputs — NaN/Inf coefficients, empty/duplicate rows, crossed
  bounds, extreme dynamic range — under repair/warn/reject policies;
- **iteration watchdogs** (:mod:`repro.guard.watchdog`): divergence
  and NaN/Inf detection hooked into simplex, dual simplex, IPM, PDHG,
  and the batched variants via one
  :class:`~repro.guard.watchdog.GuardState` shape;
- **deadline budgets** (:mod:`repro.guard.budget`): cooperative
  host/simulated-clock budgets threaded ``serve → api.solve → B&B →
  LP inner loops`` so a hit deadline yields a structured *anytime*
  result (``TIME_LIMIT``, incumbent + certified dual bound + gap);
- **escalation ladder** (:mod:`repro.guard.escalate`): rescale →
  switch engine for LPs that come back without a usable status;
- **gauntlet** (:mod:`repro.guard.gauntlet`): runs the pathological
  corpus (:mod:`repro.problems.pathological`) through the full stack —
  the ``repro guard`` CLI.

Every guard action emits a ``guard.*`` event through :mod:`repro.obs`
and is tallied on the active :class:`~repro.guard.budget.GuardContext`.

This module only imports :mod:`repro.guard.budget` and
:mod:`repro.guard.watchdog` eagerly — the sanitizer, ladder, and
gauntlet depend on the LP/MIP layers, which themselves import
``guard.budget``; the lazy attributes below keep ``guard.sanitize_problem``
and friends available without an import cycle.
"""

from repro.guard.budget import (
    DeadlineBudget,
    GuardContext,
    GuardEvent,
    ManualClock,
    active,
    deadline_hit,
    guarding,
)
from repro.guard.watchdog import (
    GuardState,
    IterationWatchdog,
    WatchdogOptions,
    WatchdogSignal,
)

_LAZY = {
    "SanitizeIssue": "repro.guard.sanitize",
    "SanitizePolicy": "repro.guard.sanitize",
    "SanitizeReport": "repro.guard.sanitize",
    "sanitize_problem": "repro.guard.sanitize",
    "EscalationOutcome": "repro.guard.escalate",
    "LADDER": "repro.guard.escalate",
    "escalate_lp": "repro.guard.escalate",
    "rescale_standard_form": "repro.guard.escalate",
    "GauntletReport": "repro.guard.gauntlet",
    "GauntletRun": "repro.guard.gauntlet",
    "run_gauntlet": "repro.guard.gauntlet",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.guard' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)


__all__ = [
    "DeadlineBudget",
    "GuardContext",
    "GuardEvent",
    "ManualClock",
    "active",
    "deadline_hit",
    "guarding",
    "SanitizeIssue",
    "SanitizePolicy",
    "SanitizeReport",
    "sanitize_problem",
    "GuardState",
    "IterationWatchdog",
    "WatchdogOptions",
    "WatchdogSignal",
    "EscalationOutcome",
    "LADDER",
    "escalate_lp",
    "rescale_standard_form",
    "GauntletReport",
    "GauntletRun",
    "run_gauntlet",
]
