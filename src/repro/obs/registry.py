"""The metrics registry: counters, time buckets, gauges, histograms.

One class, two names: every subsystem holds it as
:class:`repro.metrics.Metrics` and records through the untyped
vocabulary (``inc`` / ``add_time`` / ``observe`` / ``count`` / ``time``
/ ``percentile``); the typed instrument API lives on the same object::

    reg = MetricsRegistry()
    reg.counter("serve.requests").inc()
    reg.gauge("queue.depth").set(17)
    reg.histogram("serve.latency").observe(2.3e-4)
    reg.histogram("serve.latency").percentile(95)

Everything is deterministic: ``to_dict``/``items`` iterate in sorted key
order, histogram summaries are exact (all samples retained — the streams
here are benchmark-sized, not production-sized), and ``merge`` /
``snapshot`` / ``diff`` cover all four instrument families so the
before/after differencing pattern benchmarks rely on keeps working.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Any, Dict, Iterator, List, Sequence, Tuple

#: Percentiles exported in histogram summaries.
SUMMARY_PERCENTILES = (50.0, 95.0, 99.0)


def percentile_of(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default), 0 ≤ q ≤ 100."""
    if not values:
        return math.nan
    data = sorted(values)
    if len(data) == 1:
        return float(data[0])
    pos = (q / 100.0) * (len(data) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(data) - 1)
    frac = pos - lo
    return float(data[lo] * (1.0 - frac) + data[hi] * frac)


class Counter:
    """Handle to one monotonically increasing integer counter."""

    __slots__ = ("_store", "name")

    def __init__(self, store: Dict[str, int], name: str):
        self._store = store
        self.name = name

    def inc(self, amount: int = 1) -> None:
        self._store[self.name] += amount

    @property
    def value(self) -> int:
        return self._store.get(self.name, 0)


class Gauge:
    """Handle to one last-value-wins float gauge."""

    __slots__ = ("_store", "name")

    def __init__(self, store: Dict[str, float], name: str):
        self._store = store
        self.name = name

    def set(self, value: float) -> None:
        self._store[self.name] = float(value)

    @property
    def value(self) -> float:
        return self._store.get(self.name, math.nan)


class Histogram:
    """All-samples histogram with exact percentile export."""

    __slots__ = ("values",)

    def __init__(self, values: List[float] = None):
        self.values = [] if values is None else values

    def observe(self, value: float) -> None:
        self.values.append(float(value))

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return float(sum(self.values))

    @property
    def mean(self) -> float:
        return self.total / self.count if self.values else math.nan

    def percentile(self, q: float) -> float:
        """q-th percentile (0–100) of the observed samples."""
        return percentile_of(self.values, q)

    def summary(self) -> Dict[str, float]:
        """Stable JSON summary: count, mean, min/max, p50/p95/p99."""
        out: Dict[str, float] = {
            "count": self.count,
            "mean": self.mean if self.values else 0.0,
            "min": float(min(self.values)) if self.values else 0.0,
            "max": float(max(self.values)) if self.values else 0.0,
        }
        for q in SUMMARY_PERCENTILES:
            out[f"p{q:g}"] = self.percentile(q) if self.values else 0.0
        return out

    def copy(self) -> "Histogram":
        return Histogram(list(self.values))


class MetricsRegistry:
    """Named counters, simulated-time buckets, gauges, and histograms.

    Counters are plain integers (``inc``); time buckets accumulate
    floats in simulated seconds (``add_time``); histograms collect
    samples (``observe``) and export percentiles.  Everything is
    created on first use.  ``counters``/``times`` are live default-dict
    stores: the per-operation choke points (``Device._charge``,
    ``TransferEngine``) bind them once and add into them directly, and
    ``reset`` clears them in place so such bindings hold.
    """

    def __init__(self):
        self.counters: Dict[str, int] = defaultdict(int)
        self.times: Dict[str, float] = defaultdict(float)
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- typed instruments ------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """Counter handle (created on first use)."""
        return Counter(self.counters, name)

    def gauge(self, name: str) -> Gauge:
        """Gauge handle (created on first use)."""
        return Gauge(self.gauges, name)

    def histogram(self, name: str) -> Histogram:
        """Histogram instrument (created on first use)."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        return hist

    # -- untyped vocabulary (what the subsystems record through) ----------------

    def inc(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount`` (default 1)."""
        self.counters[name] += amount

    def add_time(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` of simulated time into bucket ``name``."""
        self.times[name] += seconds

    def observe(self, name: str, value: float) -> None:
        """Record one sample into histogram ``name``."""
        self.histogram(name).observe(value)

    def count(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self.counters.get(name, 0)

    def time(self, name: str) -> float:
        """Accumulated simulated seconds in bucket ``name`` (0.0 default)."""
        return self.times.get(name, 0.0)

    def percentile(self, name: str, q: float) -> float:
        """q-th percentile of histogram ``name`` (NaN if never observed)."""
        hist = self.histograms.get(name)
        return hist.percentile(q) if hist is not None else math.nan

    # -- lifecycle --------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in: counters/times sum, gauges take the
        other's value, histograms concatenate samples."""
        for key, val in other.counters.items():
            self.counters[key] += val
        for key, val in other.times.items():
            self.times[key] += val
        self.gauges.update(other.gauges)
        for key, hist in other.histograms.items():
            self.histogram(key).values.extend(hist.values)

    def reset(self) -> None:
        """Zero every counter, time bucket, gauge, and histogram."""
        self.counters.clear()
        self.times.clear()
        self.gauges.clear()
        self.histograms.clear()

    def snapshot(self) -> "MetricsRegistry":
        """Deep copy suitable for before/after differencing."""
        snap = MetricsRegistry()
        snap.counters = defaultdict(int, self.counters)
        snap.times = defaultdict(float, self.times)
        snap.gauges = dict(self.gauges)
        snap.histograms = {k: h.copy() for k, h in self.histograms.items()}
        return snap

    def diff(self, before: "MetricsRegistry") -> "MetricsRegistry":
        """Activity since ``before``: counter/time deltas, gauges as-is,
        histogram samples observed after the snapshot."""
        out = MetricsRegistry()
        for key, val in self.counters.items():
            delta = val - before.counters.get(key, 0)
            if delta:
                out.counters[key] = delta
        for key, val in self.times.items():
            delta = val - before.times.get(key, 0.0)
            if delta:
                out.times[key] = delta
        out.gauges = dict(self.gauges)
        for key, hist in self.histograms.items():
            seen = before.histograms.get(key)
            tail = hist.values[len(seen.values) if seen else 0 :]
            if tail:
                out.histograms[key] = Histogram(list(tail))
        return out

    # -- export ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Dict[str, Any]]:
        """Structured view with deterministic (sorted) key ordering.

        Always carries ``counters`` and ``times`` (the legacy shape);
        ``gauges`` and ``histograms`` appear only when non-empty so
        existing benchmark JSON stays byte-stable until histograms are
        actually used.
        """
        out: Dict[str, Dict[str, Any]] = {
            "counters": {k: int(v) for k, v in sorted(self.counters.items())},
            "times": {k: float(v) for k, v in sorted(self.times.items())},
        }
        if self.gauges:
            out["gauges"] = {k: float(v) for k, v in sorted(self.gauges.items())}
        if self.histograms:
            out["histograms"] = {
                k: h.summary() for k, h in sorted(self.histograms.items())
            }
        return out

    def items(self) -> Iterator[Tuple[str, float]]:
        """``(name, value)`` over counters then times, each sorted."""
        yield from sorted(self.counters.items())
        yield from sorted(self.times.items())
