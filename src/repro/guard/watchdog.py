"""Iteration watchdogs: divergence and NaN/Inf detection.

Every iterative engine (primal simplex, dual simplex, IPM, PDHG, and
the batched variants) reports progress through the same
:class:`GuardState` shape — an iteration counter, a scalar *merit*
(objective, duality measure, KKT residual: whatever the engine drives
toward its goal), and optionally the current iterate vector.  The
:class:`IterationWatchdog` turns that stream into one of three
:class:`WatchdogSignal` values; the engine maps a non-``OK`` signal to
``NUMERICAL`` instead of iterating on garbage, and the escalation
ladder (:mod:`repro.guard.escalate`) decides what to try next.  Slow
progress is not a watchdog signal: each simplex loop owns its stall
rule (the dual loop perturbs its costs, the primal loop switches to
Bland's rule), and every engine has an iteration limit.

Engines call :meth:`IterationWatchdog.observe` at their existing check
cadence (simplex every pricing round, PDHG at its KKT checks, IPM per
iteration) so the guarded hot path stays hot.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Protocol

import numpy as np


class WatchdogSignal(enum.Enum):
    """Verdict of one watchdog observation."""

    OK = "ok"
    #: Merit magnitude exploded past ``diverge_factor`` × initial scale.
    DIVERGED = "diverged"
    #: NaN/Inf appeared in the merit or the iterate vector.
    NONFINITE = "nonfinite"

    @property
    def ok(self) -> bool:
        return self is WatchdogSignal.OK


class GuardState(Protocol):
    """What an engine exposes to the watchdog each observation."""

    iteration: int
    merit: float
    vector: Optional[np.ndarray]


@dataclass
class WatchdogOptions:
    """The divergence threshold a guard context may tighten."""

    #: |merit| beyond this multiple of the initial scale is divergence.
    diverge_factor: float = 1e10

    def __post_init__(self):
        from repro.errors import ReproError

        if not self.diverge_factor > 1:
            raise ReproError(
                f"diverge_factor must exceed 1, got {self.diverge_factor!r}"
            )


class IterationWatchdog:
    """Progress monitor for one engine run.

    The first finite merit sets the scale divergence is measured
    against; the merit's direction does not matter.
    """

    def __init__(self, engine: str, options: Optional[WatchdogOptions] = None):
        self.engine = engine
        self.options = options or WatchdogOptions()
        self.scale: Optional[float] = None
        self.observations = 0

    def observe(
        self,
        iteration: int,
        merit: Optional[float] = None,
        vector: Optional[np.ndarray] = None,
    ) -> WatchdogSignal:
        """Digest one progress report; OK unless a pathology is seen."""
        self.observations += 1
        if vector is not None and not np.all(np.isfinite(vector)):
            return self._trip(WatchdogSignal.NONFINITE, iteration)
        if merit is None:
            return WatchdogSignal.OK
        merit = float(merit)
        if not np.isfinite(merit):
            return self._trip(WatchdogSignal.NONFINITE, iteration)
        if self.scale is None:
            self.scale = max(1.0, abs(merit))
        if abs(merit) > self.options.diverge_factor * self.scale:
            return self._trip(WatchdogSignal.DIVERGED, iteration)
        return WatchdogSignal.OK

    def _trip(self, signal: WatchdogSignal, iteration: int) -> WatchdogSignal:
        from repro.guard import budget as _budget

        ctx = _budget.active()
        if ctx is not None:
            ctx.note(
                "watchdog",
                engine=self.engine,
                signal=signal.value,
                iteration=int(iteration),
            )
        return signal
