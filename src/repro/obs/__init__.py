"""repro.obs — unified tracing, metrics registry, and timeline export.

One observability surface for the whole stack (the §5.1–§5.3 arguments
are claims about counts and timelines — this makes them visible per
solve and per request):

- **span tracing** (:mod:`repro.obs.span`): hierarchical host spans via
  a context-manager API plus simulated-time spans reported by the
  device, comm, and serving layers; off by default with a near-free
  disabled path;
- **metrics registry** (:mod:`repro.obs.registry`): counters, time
  buckets and histograms with percentile export (the class every
  subsystem holds as :class:`repro.metrics.Metrics`);
- **exporters** (:mod:`repro.obs.export`): Chrome-trace JSON (loadable
  in ``about://tracing`` / Perfetto), a JSON-lines event log, and
  summary rows rendered by :func:`repro.reporting.render_trace`;
- **benchmark artifacts** (:mod:`repro.obs.bench`): the machine-readable
  JSON schema the benchmarks export (``BENCH_*.json``), each written
  by one ``benchmarks/bench_*.py`` and regenerated by ``make bench``.

Typical use::

    from repro import obs

    with obs.tracing() as tracer:
        report = repro.api.solve(problem)
    obs.write_chrome_trace(tracer, "solve-trace.json")
"""

from repro.obs.bench import (
    BENCH_SCHEMA_VERSION,
    bench_payload,
    load_bench_json,
    validate_bench_payload,
    write_bench_json,
)
from repro.obs.export import (
    load_trace,
    summarize_spans,
    summarize_trace_file,
    to_chrome_trace,
    to_jsonl_lines,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.registry import Histogram, MetricsRegistry, percentile_of
from repro.obs.span import (
    HOST,
    NULL_SPAN,
    SIM,
    Span,
    Tracer,
    active,
    disable,
    enable,
    event,
    next_trace_id,
    span,
    tracing,
)

__all__ = [
    "HOST",
    "SIM",
    "NULL_SPAN",
    "Span",
    "Tracer",
    "active",
    "disable",
    "enable",
    "event",
    "next_trace_id",
    "span",
    "tracing",
    "Histogram",
    "MetricsRegistry",
    "percentile_of",
    "BENCH_SCHEMA_VERSION",
    "bench_payload",
    "load_bench_json",
    "validate_bench_payload",
    "write_bench_json",
    "load_trace",
    "summarize_spans",
    "summarize_trace_file",
    "to_chrome_trace",
    "to_jsonl_lines",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
