"""Counters and timing breakdowns used across the stack.

Every subsystem (device model, communicator, LP/MIP solvers, the serve
layer) records its activity into a :class:`Metrics` instance: named
monotonically increasing counters, named accumulated simulated-time
buckets and latency histograms.  Benchmarks read these to
report transfer counts, kernel launches, iteration totals, etc.

``Metrics`` *is* :class:`repro.obs.registry.MetricsRegistry` — one
class under the name the subsystems have always imported.  All
iteration orders are deterministic (sorted keys).
"""

from repro.obs.registry import MetricsRegistry as Metrics

__all__ = ["Metrics"]
