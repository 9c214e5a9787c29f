"""Plain-text table/series rendering for experiment reports.

Every benchmark prints its rows through these helpers so EXPERIMENTS.md
and the bench output share one format.  No plotting dependencies — the
"figures" are rendered as aligned series tables plus an ASCII sparkline.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

Number = Union[int, float]

_SPARK_CHARS = "▁▂▃▄▅▆▇█"

#: Keys every report dict carries, in canonical order.  The optional
#: solver sections (``nodes``, ``lp_iterations``, ``makespan_seconds``,
#: ``metrics``) and surface-specific extras follow when supplied.
CORE_REPORT_KEYS = ("status", "objective", "mode", "strategy", "trace_id", "bounds")


def _clean_number(value) -> Optional[float]:
    """NaN/±inf/None → None; everything else → float."""
    if value is None:
        return None
    value = float(value)
    if math.isnan(value) or math.isinf(value):
        return None
    return value


def report_dict(
    *,
    status: str,
    objective,
    strategy: Optional[str],
    mode: str = "exact",
    trace_id: str = "",
    best_bound=None,
    gap=None,
    nodes: Optional[int] = None,
    lp_iterations: Optional[int] = None,
    makespan_seconds: Optional[float] = None,
    metrics: Optional[Dict[str, Any]] = None,
    **extra,
) -> Dict[str, Any]:
    """The one JSON-friendly report shape shared by every solve surface.

    :meth:`repro.api.SolveReport.to_dict`,
    :meth:`repro.strategies.engine.StrategyReport.to_dict`, and
    :meth:`repro.serve.SolveResponse.to_dict` all delegate here, so a
    dashboard reading one of them reads all three.  Non-finite numbers
    export as ``None``; the core keys (:data:`CORE_REPORT_KEYS` plus the
    ``bounds`` sub-keys) are always present, optional solver sections
    appear only when the surface supplies them, and keyword extras land
    after them in the order given.
    """
    out: Dict[str, Any] = {
        "status": status,
        "objective": _clean_number(objective),
        "mode": mode,
        "strategy": strategy,
        "trace_id": trace_id,
        "bounds": {
            "best_bound": _clean_number(best_bound),
            "gap": _clean_number(gap),
        },
    }
    if nodes is not None:
        out["nodes"] = nodes
    if lp_iterations is not None:
        out["lp_iterations"] = lp_iterations
    if makespan_seconds is not None:
        out["makespan_seconds"] = makespan_seconds
    if metrics is not None:
        out["metrics"] = metrics
    out.update(extra)
    return out


def format_value(value) -> str:
    """Compact human-readable cell."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, int):
        return f"{value:,}"
    if isinstance(value, float):
        if value == 0.0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1e5 or magnitude < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def format_seconds(seconds: float) -> str:
    """Engineering-style time formatting."""
    if seconds <= 0:
        return "0"
    for unit, scale in (("s", 1.0), ("ms", 1e-3), ("µs", 1e-6), ("ns", 1e-9)):
        if seconds >= scale:
            return f"{seconds / scale:.3g} {unit}"
    return f"{seconds:.3g} s"


def format_bytes(nbytes: int) -> str:
    """Binary-prefixed byte counts."""
    value = float(nbytes)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if value < 1024 or unit == "TiB":
            return f"{value:.3g} {unit}"
        value /= 1024
    return f"{value:.3g} TiB"  # pragma: no cover - loop always returns


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    title: Optional[str] = None,
) -> str:
    """Fixed-width table with a rule under the header."""
    str_rows: List[List[str]] = [[format_value(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_metrics(metrics, title: Optional[str] = None, prefix: Optional[str] = None) -> str:
    """Table of a :class:`repro.metrics.Metrics` object's buckets.

    Counters render as counts, time buckets as engineering-style times;
    ``prefix`` keeps only keys starting with it (e.g. ``"serve."``).
    The object is read through :meth:`Metrics.to_dict`, so any mapping
    with that method works.
    """
    data = metrics.to_dict()
    rows: List[tuple] = []
    for name, value in data["counters"].items():
        if prefix and not name.startswith(prefix):
            continue
        rows.append((name, value))
    for name, value in data["times"].items():
        if prefix and not name.startswith(prefix):
            continue
        rows.append((name, format_seconds(value)))
    return render_table(["metric", "value"], rows, title=title)


def render_trace(rows, title: Optional[str] = None) -> str:
    """Table of :func:`repro.obs.summarize_spans`-shaped rows.

    Each row is ``(timeline, name, count, total, mean, max)`` with the
    durations in seconds; they render with engineering-style times.
    """
    table_rows = [
        (
            timeline,
            name,
            count,
            format_seconds(total),
            format_seconds(mean),
            format_seconds(peak),
        )
        for timeline, name, count, total, mean, peak in rows
    ]
    return render_table(
        ["timeline", "span", "count", "total", "mean", "max"],
        table_rows,
        title=title,
    )


def render_percentiles(metrics, names: Sequence[str], title: Optional[str] = None) -> str:
    """Table of p50/p95/p99 latency summaries from observed histograms.

    ``names`` selects histograms on a :class:`repro.metrics.Metrics`;
    missing/empty ones are skipped (and not created by the read).
    """
    rows = []
    for name in names:
        hist = metrics.histograms.get(name)
        if hist is None or not hist.count:
            continue
        rows.append(
            (
                name,
                hist.count,
                format_seconds(hist.percentile(50.0)),
                format_seconds(hist.percentile(95.0)),
                format_seconds(hist.percentile(99.0)),
                format_seconds(hist.mean),
            )
        )
    return render_table(
        ["histogram", "count", "p50", "p95", "p99", "mean"], rows, title=title
    )


def render_certificate(report) -> str:
    """Table of a :class:`repro.check.CertificateReport`'s exact checks."""
    rows = [
        (
            check.name,
            "pass" if check.ok else "FAIL",
            check.violation,
            check.tolerance,
            check.detail,
        )
        for check in report.checks
    ]
    return render_table(
        ["check", "status", "violation", "tolerance", "detail"],
        rows,
        title=f"certificate: {report.problem_name}",
    )


def render_differential(report) -> str:
    """Tables of a :class:`repro.check.DifferentialReport`'s runs/conflicts."""
    rows = [
        (
            run.name,
            run.status,
            run.objective,
            "yes" if run.conclusive else "no",
        )
        for run in report.runs
    ]
    out = render_table(
        ["solver", "status", "objective", "conclusive"],
        rows,
        title=f"differential: {report.problem_name}",
    )
    if report.disagreements:
        conflict_rows = [
            (d.left, d.right, d.kind, d.left_value, d.right_value, d.delta)
            for d in report.disagreements
        ]
        out += "\n" + render_table(
            ["left", "right", "kind", "left value", "right value", "delta"],
            conflict_rows,
            title="DISAGREEMENTS",
        )
    return out


def render_fuzz(report) -> str:
    """Summary + failure tables of a :class:`repro.check.FuzzReport`."""
    rows = [
        ("instances", report.instances),
        *((f"{kind} checks", count) for kind, count in report.checks.items()),
        ("failures", len(report.failures)),
    ]
    out = render_table(
        ["metric", "value"],
        rows,
        title=f"fuzz: budget {report.budget}, seed {report.seed}",
    )
    if report.failures:
        failure_rows = [
            (
                f.kind,
                f.iteration,
                "x".join(str(v) for v in f.shrunk_size) or "-",
                f.repro_path,
                f.detail[:60],
            )
            for f in report.failures
        ]
        out += "\n" + render_table(
            ["kind", "iter", "shrunk (m,n,nnz)", "repro file", "detail"],
            failure_rows,
            title="FAILURES",
        )
    return out


def render_chaos(report) -> str:
    """Per-run table of a :class:`repro.faults.chaos.ChaosReport`."""
    rows = []
    for run in report.runs:
        counts = run.counts or {}
        rows.append(
            (
                "ok" if run.ok else "FAIL",
                run.plan,
                run.scenario,
                counts.get("injected", 0),
                counts.get("recovered", 0),
                counts.get("tolerated", 0),
                counts.get("escaped", 0),
                run.detail[:48] if run.detail else "-",
            )
        )
    failures = sum(1 for run in report.runs if not run.ok)
    return render_table(
        ["", "plan", "scenario", "inj", "rec", "tol", "esc", "detail"],
        rows,
        title=(
            f"chaos: {len(report.runs)} runs, "
            f"{report.total_injected} faults injected, {failures} failures"
        ),
    )


def render_guard(report) -> str:
    """Per-case table of a :class:`repro.guard.gauntlet.GauntletReport`."""
    rows = []
    for run in report.runs:
        rows.append(
            (
                "ok" if run.ok else "FAIL",
                run.case,
                run.expect,
                run.outcome,
                ",".join(run.repaired) if run.repaired else "-",
                ",".join(f"{k}={v}" for k, v in sorted(run.counters.items()))
                or "-",
                run.detail[:48] if run.detail else "-",
            )
        )
    failures = sum(1 for run in report.runs if not run.ok)
    return render_table(
        ["", "case", "expect", "outcome", "repaired", "guard", "detail"],
        rows,
        title=f"guard gauntlet: {len(report.runs)} cases, {failures} failures",
    )


def sparkline(values: Sequence[Number]) -> str:
    """One-line unicode sparkline of a series."""
    values = [float(v) for v in values]
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi == lo:
        return _SPARK_CHARS[0] * len(values)
    span = hi - lo
    out = []
    for v in values:
        idx = int((v - lo) / span * (len(_SPARK_CHARS) - 1))
        out.append(_SPARK_CHARS[idx])
    return "".join(out)


def render_series(
    x_label: str,
    xs: Sequence,
    series: Sequence[tuple],
    title: Optional[str] = None,
) -> str:
    """A "figure": x column + one column per (name, values) series,
    followed by per-series sparklines."""
    headers = [x_label] + [name for name, _ in series]
    rows = []
    for i, x in enumerate(xs):
        rows.append([x] + [values[i] for _, values in series])
    table = render_table(headers, rows, title=title)
    sparks = "\n".join(
        f"  {name:>20}: {sparkline(values)}" for name, values in series
    )
    return f"{table}\n{sparks}"
