"""Priority classes and SLO-aware admission for the cluster front door.

Under overload a service has two honest choices: queue everyone (and
blow every latency SLO) or shed the traffic that matters least.  The
cluster front door takes the second: every request carries a priority
class (``gold`` > ``silver`` > ``bronze``), and an
:class:`SLOAdmission` controller sheds the lowest classes first when
the *observed* tail latency — p95/p99 over the controller's own window
of the last :data:`WINDOW` delivered latencies — exceeds the SLO
targets.  The window is kept sorted on insert (``bisect``), beside an
arrival-order queue that says which value leaves next, so a read is a
few index and arithmetic steps; it is NumPy's ``linear`` method
written out op for op, and equals ``np.percentile`` bit for bit.

The control loop is deliberately simple and fully deterministic:

- every ``CHECK_INTERVAL`` simulated seconds the controller re-reads
  p95/p99 over the sliding window of the last ``WINDOW`` latencies;
- if either percentile exceeds its target, the shed level rises by one
  (first ``bronze`` is shed, then ``silver``; ``gold`` is never shed —
  saturation then falls through to the queue-depth admission control
  the groups already enforce);
- if both percentiles sit below ``RECOVER_FRACTION`` of their targets,
  the shed level falls by one.

Hysteresis comes from the interval (the level moves at most one step
per check) and the recovery fraction (the level does not flap around
the target).
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

import numpy as np

from repro.errors import ServiceError

#: Priority classes, best first.  Rank is the shed order from the back:
#: bronze sheds first, gold never sheds.
PRIORITY_CLASSES = ("gold", "silver", "bronze")
_RANK = {name: i for i, name in enumerate(PRIORITY_CLASSES)}

#: Simulated seconds between controller evaluations.
CHECK_INTERVAL = 1e-3
#: The shed level falls only when p95 and p99 are both below this
#: fraction of their targets.
RECOVER_FRACTION = 0.5
#: Percentiles are computed over at most this many recent latencies.
WINDOW = 256


def _linear(data: List[float], q: float) -> float:
    """``np.percentile(data, 100 * q)`` of a sorted, non-empty list.

    NumPy's default (``linear``) method in its own order of operations:
    the virtual index ``(n - 1) * q``, its floor ``i`` and fraction
    ``t``, then ``a + d * t`` below ``t = 0.5`` and ``b - d * (1 - t)``
    from there (``d = b - a``).  At the top index NumPy reads the last
    value twice with ``t = v + 1``; only ``n = 1`` gets there for
    ``q < 1``.
    """
    n = len(data)
    v = (n - 1) * q
    if v >= n - 1:
        a = b = data[-1]
        t = v + 1
    else:
        i = int(v)
        a, b = data[i], data[i + 1]
        t = v - i
    d = b - a
    return a + d * t if t < 0.5 else b - d * (1 - t)


def priority_rank(priority: str) -> int:
    """0 for gold, 1 for silver, 2 for bronze; raises on unknown names."""
    try:
        return _RANK[priority]
    except KeyError:
        raise ServiceError(
            f"unknown priority class {priority!r}; valid classes are "
            + ", ".join(repr(p) for p in PRIORITY_CLASSES)
        ) from None


@dataclass(frozen=True)
class SLOPolicy:
    """Latency targets the shedding controller holds the tail to."""

    #: p95 latency target in simulated seconds.
    p95_target: float = 5e-3
    #: p99 latency target in simulated seconds.
    p99_target: float = 2e-2

    def __post_init__(self):
        if not self.p95_target > 0 or not self.p99_target > 0:
            raise ServiceError("SLO latency targets must be positive")


class SLOAdmission:
    """The shedding controller: observed tail latency → shed level.

    ``shed_level`` is how many classes (from the back of
    :data:`PRIORITY_CLASSES`) are currently refused: 0 admits all,
    1 sheds bronze, 2 sheds silver and bronze.  Gold is never shed.
    """

    def __init__(self, policy: Optional[SLOPolicy] = None):
        self.policy = policy or SLOPolicy()
        self.shed_level = 0
        #: The last ``WINDOW`` latencies, sorted; ``_arrivals`` holds the
        #: same values in arrival order, so the oldest leaves first.
        self._window: List[float] = []
        self._arrivals: Deque[float] = deque()
        self._last_check = -np.inf
        self.shed_counts: Dict[str, int] = {p: 0 for p in PRIORITY_CLASSES}
        self.admitted_counts: Dict[str, int] = {p: 0 for p in PRIORITY_CLASSES}
        #: (sim time, new level, p95, p99) history for reports.
        self.transitions: List[tuple] = []

    # -- signal ------------------------------------------------------------------

    def observe(self, latency: float) -> None:
        """Feed one completed-request latency into the sliding window."""
        latency = float(latency)
        self._arrivals.append(latency)
        bisect.insort(self._window, latency)
        if len(self._arrivals) > WINDOW:
            oldest = self._arrivals.popleft()
            del self._window[bisect.bisect_left(self._window, oldest)]

    def percentiles(self) -> tuple:
        """Current (p95, p99) over the window (0.0 while empty)."""
        if not self._window:
            return 0.0, 0.0
        return _linear(self._window, 0.95), _linear(self._window, 0.99)

    # -- control loop ------------------------------------------------------------

    def evaluate(self, now: float) -> int:
        """Move the shed level at most one step; returns the level."""
        if now - self._last_check < CHECK_INTERVAL:
            return self.shed_level
        self._last_check = now
        p95, p99 = self.percentiles()
        policy = self.policy
        max_level = len(PRIORITY_CLASSES) - 1  # gold is never shed
        if p95 > policy.p95_target or p99 > policy.p99_target:
            if self.shed_level < max_level:
                self.shed_level += 1
                self.transitions.append((now, self.shed_level, p95, p99))
        elif (
            p95 < RECOVER_FRACTION * policy.p95_target
            and p99 < RECOVER_FRACTION * policy.p99_target
            and self.shed_level > 0
        ):
            self.shed_level -= 1
            self.transitions.append((now, self.shed_level, p95, p99))
        return self.shed_level

    def admit(self, priority: str, now: float) -> bool:
        """Admission verdict for one arriving request (counts both ways)."""
        rank = priority_rank(priority)
        self.evaluate(now)
        shed_from = len(PRIORITY_CLASSES) - self.shed_level
        if rank >= shed_from:
            self.shed_counts[priority] += 1
            return False
        self.admitted_counts[priority] += 1
        return True

    # -- reporting ---------------------------------------------------------------

    def shed_rate(self, priority: str) -> float:
        """Shed / offered for one class (0.0 when the class saw nothing)."""
        shed = self.shed_counts[priority]
        offered = shed + self.admitted_counts[priority]
        return shed / offered if offered else 0.0

    def stats(self) -> Dict:
        p95, p99 = self.percentiles()
        return {
            "shed_level": self.shed_level,
            "p95_observed": p95,
            "p99_observed": p99,
            "shed": dict(self.shed_counts),
            "admitted": dict(self.admitted_counts),
            "shed_rate": {p: self.shed_rate(p) for p in PRIORITY_CLASSES},
            "transitions": len(self.transitions),
        }
