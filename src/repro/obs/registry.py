"""The metrics registry: counters, time buckets, histograms.

One class, two names: every subsystem holds it as
:class:`repro.metrics.Metrics` and records through ``inc`` /
``add_time`` / ``observe``, and reads back through ``count`` / ``time``
/ ``percentile`` / ``histogram``::

    reg = MetricsRegistry()
    reg.inc("serve.requests")
    reg.observe("serve.latency", 2.3e-4)
    reg.percentile("serve.latency", 95)

Everything is deterministic: ``to_dict`` iterates in sorted key order,
histogram summaries are exact (all samples retained — the streams here
are benchmark-sized, not production-sized), and ``merge`` folds all
three families.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Any, Dict, List, Sequence

#: Percentiles exported in histogram summaries.
SUMMARY_PERCENTILES = (50.0, 95.0, 99.0)


def percentile_of(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, 0 ≤ q ≤ 100.

    The same rule as NumPy's default (``linear``) method, but not its
    arithmetic: this reads ``lo·(1 − f) + hi·f`` where NumPy reads
    ``lo + (hi − lo)·f`` (or ``hi − (hi − lo)·(1 − f)`` from ``f = ½``),
    so the two can differ in the last bit.  The exported histogram
    summaries are computed this way and stay so.
    """
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


class Histogram:
    """All-samples histogram with exact percentile export."""

    __slots__ = ("values",)

    def __init__(self):
        self.values: List[float] = []

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


class MetricsRegistry:
    """Named counters, simulated-time buckets, and histograms.

    Counters are plain integers (``inc``); time buckets accumulate
    floats in simulated seconds (``add_time``); histograms collect
    samples (``observe``) and export percentiles.  Everything is
    created on first use.  ``counters``/``times`` are live default-dict
    stores: the per-operation choke points (``Device._charge``,
    ``TransferEngine``) bind them once and add into them directly.
    """

    def __init__(self):
        self.counters: Dict[str, int] = defaultdict(int)
        self.times: Dict[str, float] = defaultdict(float)
        self.histograms: Dict[str, Histogram] = {}

    def histogram(self, name: str) -> Histogram:
        """Histogram instrument (created on first use)."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        return hist

    def inc(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount`` (default 1)."""
        self.counters[name] += amount

    def add_time(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` of simulated time into bucket ``name``."""
        self.times[name] += seconds

    def observe(self, name: str, value: float) -> None:
        """Record one sample into histogram ``name``."""
        try:
            self.histograms[name].values.append(float(value))
        except KeyError:
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

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in: counters/times sum, histograms
        concatenate samples."""
        for key, val in other.counters.items():
            self.counters[key] += val
        for key, val in other.times.items():
            self.times[key] += val
        for key, hist in other.histograms.items():
            self.histogram(key).values.extend(hist.values)

    def to_dict(self) -> Dict[str, Dict[str, Any]]:
        """Structured view with deterministic (sorted) key ordering.

        Always carries ``counters`` and ``times`` (the legacy shape);
        ``histograms`` appears only when non-empty so existing benchmark
        JSON stays byte-stable until histograms are actually used.
        """
        out: Dict[str, Dict[str, Any]] = {
            "counters": {k: int(v) for k, v in sorted(self.counters.items())},
            "times": {k: float(v) for k, v in sorted(self.times.items())},
        }
        if self.histograms:
            out["histograms"] = {
                k: h.summary() for k, h in sorted(self.histograms.items())
            }
        return out

