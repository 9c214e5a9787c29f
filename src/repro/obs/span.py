"""Hierarchical span tracing over two timelines (host wall clock + sim).

A :class:`Tracer` records *spans* — named intervals with attributes and
parent/child structure — from two kinds of sources:

- **host spans** opened with the context-manager API (``with
  tracer.span("mip.node", depth=3): ...``), timed on a wall clock
  relative to the tracer's epoch;
- **sim spans/events** reported with explicit timestamps by the
  simulated subsystems (device kernels and transfers, MPI messages,
  the serving timeline), all in simulated seconds.

The two timelines export as separate *processes* of one Chrome trace
(:mod:`repro.obs.export`), so ``about://tracing`` shows the real-time
shape of the search next to the simulated device/service timeline.

Tracing is **off by default** and the disabled path is engineered to be
near-free: :func:`span` returns a shared no-op context manager and the
hot device/comm call sites guard on :func:`active` returning ``None``
(one global read), so benchmarks pay no measurable cost untraced.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

#: Chrome-trace process for host (wall-clock) spans.
HOST = "host"
#: Chrome-trace process for simulated-time spans and events.
SIM = "sim"


@dataclass
class Span:
    """One finished span (or instant event, when ``duration`` is 0).

    ``timeline`` is :data:`HOST` (wall-clock seconds since the tracer's
    epoch) or :data:`SIM` (simulated seconds); ``track`` is the row the
    span renders on (a device, an MPI rank, a request, or the host call
    stack); ``parent_id`` links host spans into their nesting tree
    (``-1`` for roots and sim events).
    """

    span_id: int
    name: str
    category: str
    timeline: str
    track: str
    start: float
    duration: float
    parent_id: int = -1
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def end(self) -> float:
        """Completion time on this span's timeline."""
        return self.start + self.duration


class _SpanHandle:
    """Context manager for one in-flight host span."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def set(self, **attrs: Any) -> "_SpanHandle":
        """Attach attributes to the live span (chainable)."""
        self._span.attrs.update(attrs)
        return self

    def __enter__(self) -> "_SpanHandle":
        return self

    def __exit__(self, *exc) -> None:
        self._tracer._finish(self._span)


class _NullSpan:
    """Shared no-op span handle used whenever tracing is disabled."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans from the host and the simulated subsystems.

    ``trace_id`` names the whole trace (solve- or request-scoped ids
    are attached per span by the instrumented layers); ``clock`` is the
    host wall clock (override for deterministic tests).
    """

    def __init__(self, clock=time.perf_counter):
        self.trace_id = next_trace_id()
        self._clock = clock
        self._epoch = clock()
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._stack: List[Span] = []

    # -- host spans -------------------------------------------------------------

    def now(self) -> float:
        """Wall-clock seconds since this tracer's epoch."""
        return self._clock() - self._epoch

    def span(self, name: str, category: str = "solve", **attrs: Any) -> _SpanHandle:
        """Open a host span; close it by exiting the context manager."""
        span = Span(
            span_id=next(self._ids),
            name=name,
            category=category,
            timeline=HOST,
            track=HOST,
            start=self.now(),
            duration=0.0,
            parent_id=self._stack[-1].span_id if self._stack else -1,
            attrs=dict(attrs) if attrs else {},
        )
        self._stack.append(span)
        return _SpanHandle(self, span)

    def _finish(self, span: Span) -> None:
        span.duration = self.now() - span.start
        # Exception-safe unwind: drop everything above this span too.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        self.spans.append(span)

    def event(self, name: str, category: str = "solve", **attrs: Any) -> None:
        """Record an instant host event at the current wall time."""
        self.spans.append(
            Span(
                span_id=next(self._ids),
                name=name,
                category=category,
                timeline=HOST,
                track=HOST,
                start=self.now(),
                duration=0.0,
                parent_id=self._stack[-1].span_id if self._stack else -1,
                attrs=dict(attrs) if attrs else {},
            )
        )

    # -- simulated-time spans ----------------------------------------------------

    def sim_span(
        self,
        name: str,
        start: float,
        duration: float,
        track: str,
        category: str = "device",
        parent_id: int = -1,
        **attrs: Any,
    ) -> Span:
        """Record one interval on the simulated timeline.

        Returns the span so callers can chain children via
        ``parent_id=parent.span_id`` (the serving layer nests
        queue/assembly/device under each request span this way).
        """
        span = Span(
            span_id=next(self._ids),
            name=name,
            category=category,
            timeline=SIM,
            track=track,
            start=start,
            duration=duration,
            parent_id=parent_id,
            attrs=dict(attrs) if attrs else {},
        )
        self.spans.append(span)
        return span

    # -- queries ------------------------------------------------------------------

    def find(self, name: str) -> List[Span]:
        """All recorded spans with this name, in completion order."""
        return [s for s in self.spans if s.name == name]

    def children(self, span: Span) -> List[Span]:
        """Direct children of a span."""
        return [s for s in self.spans if s.parent_id == span.span_id]

    def __len__(self) -> int:
        return len(self.spans)


# -- global active tracer ----------------------------------------------------------

_ACTIVE: Optional[Tracer] = None
_TRACE_IDS = itertools.count(1)


def next_trace_id() -> str:
    """Process-unique, deterministic trace id."""
    return f"trace-{next(_TRACE_IDS):06d}"


def active() -> Optional[Tracer]:
    """The installed tracer, or None when tracing is disabled."""
    return _ACTIVE


def enable() -> Tracer:
    """Install (and return) a fresh active tracer."""
    global _ACTIVE
    _ACTIVE = Tracer()
    return _ACTIVE


def disable() -> None:
    """Remove the active tracer; instrumentation reverts to no-ops."""
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def tracing() -> Iterator[Tracer]:
    """Scope a fresh tracer: installs on entry, restores the previous on exit."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = Tracer()
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous


def span(name: str, category: str = "solve", **attrs: Any):
    """Open a span on the active tracer (shared no-op when disabled)."""
    if _ACTIVE is None:
        return NULL_SPAN
    return _ACTIVE.span(name, category, **attrs)


def event(name: str, category: str = "solve", **attrs: Any) -> None:
    """Record an instant event on the active tracer (no-op when disabled)."""
    if _ACTIVE is not None:
        _ACTIVE.event(name, category, **attrs)
