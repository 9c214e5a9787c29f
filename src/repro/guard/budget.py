"""Cooperative deadline budgets and the active guard context.

The serving layer has per-request deadlines, but until now they only
governed *queue* time — once a member solve started, nothing could stop
it.  :class:`DeadlineBudget` threads a budget from
``serve → api.solve → B&B node loop → LP inner loops`` so every engine
can stop cooperatively and return a structured *anytime* answer
(``TIME_LIMIT`` status, best incumbent + certified dual bound) instead
of hanging or raising.

Budgets are clock-agnostic: the default clock is ``time.monotonic``
(host wall time), the serving layer installs budgets over the simulated
device clock, and tests use :class:`ManualClock` for deterministic
deadline hits.  A :class:`GuardContext` bundles budgets with watchdog
and sanitizer configuration and is installed with :func:`guarding`,
mirroring the ``repro.faults`` active-injector pattern.  Nested
contexts inherit the parent's budgets, so an outer serve deadline still
binds inside an inner ``api.solve`` context.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from repro import obs
from repro.errors import DeadlineExpired, ReproError


class ManualClock:
    """A hand-advanced clock for deterministic deadline tests."""

    def __init__(self):
        self.now = 0.0

    def advance(self, dt: float) -> None:
        """Move time forward by ``dt`` (negative steps are rejected)."""
        if dt < 0:
            raise ReproError("ManualClock cannot run backwards")
        self.now += dt

    def __call__(self) -> float:
        return self.now


class DeadlineBudget:
    """A budget of ``seconds`` on an arbitrary monotonic clock.

    ``expired`` is sticky: once the clock passes the deadline the budget
    stays expired, so hot loops can poll cheaply and trust the answer.
    """

    def __init__(
        self,
        seconds: float,
        clock: Callable[[], float] = time.monotonic,
        label: str = "host",
    ):
        if not seconds > 0:
            raise ReproError(
                f"deadline budget must be positive, got {seconds!r}"
            )
        self.seconds = float(seconds)
        self.clock = clock
        self.label = label
        self.start = float(clock())
        self._expired = False

    def elapsed(self) -> float:
        """Seconds consumed since the budget was created."""
        return float(self.clock()) - self.start

    def remaining(self) -> float:
        """Seconds left (clamped at zero)."""
        return max(0.0, self.seconds - self.elapsed())

    def expired(self) -> bool:
        """True once the budget has run out (sticky)."""
        if not self._expired and self.elapsed() >= self.seconds:
            self._expired = True
        return self._expired

    def check(self, where: str) -> None:
        """Raise :class:`DeadlineExpired` if the budget has run out.

        For code paths with nothing partial to return (setup);
        iterative loops should poll :meth:`expired` and surrender with a
        ``TIME_LIMIT`` status instead.
        """
        if self.expired():
            raise DeadlineExpired(where, self.elapsed(), self.seconds)


@dataclass
class GuardEvent:
    """One recorded guard action (for reports and the gauntlet)."""

    kind: str
    detail: Dict = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return {"kind": self.kind, **self.detail}


class GuardContext:
    """The active solver-health configuration and event log.

    Holds any number of deadline budgets (host and simulated clocks may
    coexist), watchdog options for the iterative engines, and a counter
    map every guard site increments.  Install with :func:`guarding`.
    """

    def __init__(
        self,
        budgets: Optional[List[DeadlineBudget]] = None,
        watchdog: Optional[object] = None,
    ):
        # Watchdog options live in repro.guard.watchdog; kept as object
        # here to avoid an import cycle with the engines.
        self.budgets: List[DeadlineBudget] = list(budgets or [])
        self.watchdog_options = watchdog
        self.events: List[GuardEvent] = []
        self.counters: Dict[str, int] = {}
        self._hit = False

    def adopt(self, budget: DeadlineBudget) -> None:
        """Inherit a parent context's budget (no duplicates)."""
        if budget not in self.budgets:
            self.budgets.append(budget)

    def deadline_hit(self) -> bool:
        """True once *any* attached budget has expired (sticky)."""
        if self._hit:
            return True
        for budget in self.budgets:
            if budget.expired():
                self._hit = True
                self.note(
                    "deadline",
                    label=budget.label,
                    budget=budget.seconds,
                    elapsed=budget.elapsed(),
                )
                return True
        return False

    def remaining(self) -> float:
        """Tightest remaining budget across clocks (inf when unguarded)."""
        if not self.budgets:
            return float("inf")
        return min(b.remaining() for b in self.budgets)

    def check(self, where: str) -> None:
        """Raise on expiry — for phases with no anytime answer yet."""
        for budget in self.budgets:
            budget.check(where)

    def note(self, kind: str, **detail) -> None:
        """Record a guard event and mirror it to ``repro.obs``."""
        self.events.append(GuardEvent(kind=kind, detail=dict(detail)))
        self.counters[kind] = self.counters.get(kind, 0) + 1
        obs.event(f"guard.{kind}", category="guard", **detail)

    def summary(self) -> Dict:
        """Counter map plus the event log, JSON-ready."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "events": [e.to_dict() for e in self.events],
        }


_ACTIVE: Optional[GuardContext] = None


def active() -> Optional[GuardContext]:
    """The installed guard context, or None when guarding is off."""
    return _ACTIVE


def deadline_hit() -> bool:
    """Cheap hot-loop poll: True when an active budget has expired."""
    ctx = _ACTIVE
    return ctx is not None and ctx.deadline_hit()


@contextmanager
def guarding(ctx: Optional[GuardContext] = None) -> Iterator[GuardContext]:
    """Install ``ctx`` (or a fresh context) for the duration of the block.

    Unlike fault injection, guard contexts nest: the inner context
    adopts the outer one's budgets so an enclosing deadline still
    applies, and the outer context is restored on exit.
    """
    global _ACTIVE
    ctx = ctx if ctx is not None else GuardContext()
    prev = _ACTIVE
    if prev is not None:
        for budget in prev.budgets:
            ctx.adopt(budget)
    _ACTIVE = ctx
    try:
        yield ctx
    finally:
        _ACTIVE = prev
