"""Monotone simulated clock.

Every subsystem that models time (device kernels, transfers, network
messages, worker ranks) advances a :class:`SimClock`.  The clock only
moves forward; attempts to move it backward raise, which property tests
rely on to catch cost-model bugs.
"""

from __future__ import annotations

from repro.errors import DeviceError


class SimClock:
    """A simulated wall clock measured in seconds."""

    __slots__ = ("_now",)

    def __init__(self):
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward by ``seconds``; returns the new time."""
        if seconds < 0.0:
            raise DeviceError(f"cannot advance clock by negative {seconds}")
        self._now += seconds
        return self._now

    def advance_to(self, when: float) -> float:
        """Move time forward to absolute time ``when`` (no-op if past)."""
        if when > self._now:
            self._now = when
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self._now:.9f})"
