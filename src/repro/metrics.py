"""Lightweight counters and timing breakdowns used across the stack.

Every subsystem (device model, communicator, LP/MIP solvers, the serve
layer) records its activity into a :class:`Metrics` instance: named
monotonically increasing counters plus named accumulated simulated-time
buckets.  Benchmarks read these to report transfer counts, kernel
launches, iteration totals, etc.

Since the :mod:`repro.obs` redesign, ``Metrics`` is a thin adapter over
:class:`repro.obs.registry.MetricsRegistry` — the same object now also
carries gauges and latency histograms (``observe`` / ``percentile``),
and the typed instrument API is available through ``.registry``.  The
legacy surface (``inc``/``add_time``/``merge``/``diff``/``snapshot``/
``to_dict``/``items`` and direct ``counters``/``times`` dict access)
is unchanged, and all iteration orders are deterministic (sorted keys).

The two choke points that record on *every* simulated operation —
:meth:`repro.device.gpu.Device._charge` and
:class:`repro.device.transfer.TransferEngine` — do not go through
``inc``/``add_time``: they bind the registry's ``counters``/``times``
stores at construction and add into them directly (same stores, keys
and accumulation order; ``reset`` clears in place, so bindings hold).
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro.obs.registry import MetricsRegistry


class Metrics:
    """Named counters, time buckets, gauges, and histograms.

    Counters are plain integers (``inc``); time buckets accumulate
    floats in simulated seconds (``add_time``); histograms collect
    samples (``observe``) and export percentiles.  Everything is
    created on first use.
    """

    __slots__ = ("registry",)

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()

    # -- shared storage (writable dict views, as before the redesign) ------------

    @property
    def counters(self) -> Dict[str, int]:
        """The registry's counter store (a live default-dict)."""
        return self.registry.counters

    @property
    def times(self) -> Dict[str, float]:
        """The registry's time-bucket store (a live default-dict)."""
        return self.registry.times

    # -- recording ---------------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount`` (default 1)."""
        self.registry.counters[name] += amount

    def add_time(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` of simulated time into bucket ``name``."""
        self.registry.times[name] += seconds

    def observe(self, name: str, value: float) -> None:
        """Record one sample into histogram ``name``."""
        self.registry.observe(name, value)

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self.registry.gauge(name).set(value)

    # -- reading -----------------------------------------------------------------

    def count(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self.registry.counters.get(name, 0)

    def time(self, name: str) -> float:
        """Accumulated simulated seconds in bucket ``name`` (0.0 default)."""
        return self.registry.times.get(name, 0.0)

    def percentile(self, name: str, q: float) -> float:
        """q-th percentile (0–100) of histogram ``name`` (NaN if empty)."""
        return self.registry.percentile(name, q)

    def histogram(self, name: str):
        """Histogram ``name`` if it has samples, else None (no creation)."""
        return self.registry.histograms.get(name)

    # -- lifecycle ---------------------------------------------------------------

    def merge(self, other: "Metrics") -> None:
        """Fold another metrics object into this one (sums per key)."""
        self.registry.merge(other.registry)

    def reset(self) -> None:
        """Zero every counter, time bucket, gauge, and histogram."""
        self.registry.reset()

    def snapshot(self) -> "Metrics":
        """Deep copy suitable for before/after differencing."""
        return Metrics(self.registry.snapshot())

    def diff(self, before: "Metrics") -> "Metrics":
        """Metrics accumulated since ``before`` (a prior :meth:`snapshot`)."""
        return Metrics(self.registry.diff(before.registry))

    # -- export ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Dict[str, float]]:
        """Structured ``{"counters": ..., "times": ...}`` view.

        Plain dicts with sorted keys — the stable form services and
        benchmarks emit instead of poking at ``counters``/``times``.
        ``gauges`` and ``histograms`` keys appear only when used.
        """
        return self.registry.to_dict()

    def items(self) -> Iterator[Tuple[str, float]]:
        """Iterate ``(name, value)`` over counters then time buckets.

        Deterministic: each family yields in sorted key order.
        """
        return self.registry.items()

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"{k}={v}" for k, v in sorted(self.counters.items())]
        parts += [f"{k}={v:.6g}s" for k, v in sorted(self.times.items())]
        return "Metrics(" + ", ".join(parts) + ")"
