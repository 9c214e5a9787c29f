"""Trace exporters: Chrome trace JSON, JSON-lines, and summary rows.

The Chrome trace export loads directly into ``about://tracing`` /
`Perfetto <https://ui.perfetto.dev>`_: the host (wall-clock) spans and
the simulated timeline (device kernels, transfers, MPI messages, the
serving request lifecycle) render as two processes, with one named
thread row per track.  :func:`validate_chrome_trace` is the schema check
CI's ``cli-smoke`` job runs on every exported file.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs.span import HOST, SIM, Span, Tracer

#: Chrome-trace process ids for the two timelines.
PID_HOST = 1
PID_SIM = 2

_PROCESS_NAMES = {PID_HOST: "host (wall clock)", PID_SIM: "simulated platform"}


def _json_safe(value: Any) -> Any:
    """Coerce attribute values (numpy scalars included) to JSON types."""
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return str(value)


def _safe_attrs(attrs: Dict[str, Any]) -> Dict[str, Any]:
    return {k: _json_safe(v) for k, v in attrs.items()}


def to_chrome_trace(tracer: Tracer) -> Dict[str, Any]:
    """Render a tracer's spans as a Chrome trace object."""
    events: List[Dict[str, Any]] = []
    tids: Dict[Tuple[int, str], int] = {}

    def tid_for(pid: int, track: str) -> int:
        key = (pid, track)
        if key not in tids:
            tid = len([k for k in tids if k[0] == pid])
            tids[key] = tid
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": track},
                }
            )
        return tids[key]

    for pid, name in _PROCESS_NAMES.items():
        events.append(
            {"ph": "M", "name": "process_name", "pid": pid, "args": {"name": name}}
        )

    for span in tracer.spans:
        pid = PID_HOST if span.timeline == HOST else PID_SIM
        event: Dict[str, Any] = {
            "ph": "X",
            "name": span.name,
            "cat": span.category,
            "pid": pid,
            "tid": tid_for(pid, span.track),
            "ts": span.start * 1e6,  # Chrome traces are in microseconds
            "dur": span.duration * 1e6,
            "args": _safe_attrs(span.attrs),
        }
        if span.parent_id >= 0:
            event["args"]["parent_id"] = span.parent_id
        event["args"]["span_id"] = span.span_id
        events.append(event)

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"trace_id": tracer.trace_id, "spans": len(tracer.spans)},
    }


def write_chrome_trace(tracer: Tracer, path: str) -> Dict[str, Any]:
    """Write the Chrome trace JSON; returns the exported object."""
    trace = to_chrome_trace(tracer)
    with open(path, "w") as fh:
        json.dump(trace, fh)
    return trace


def load_trace(path: str) -> Dict[str, Any]:
    """Load a Chrome trace JSON file."""
    with open(path) as fh:
        return json.load(fh)


def validate_chrome_trace(trace: Any) -> List[str]:
    """Schema-check a Chrome trace object; returns problems (empty = valid).

    Checks the JSON Object Format contract ``about://tracing`` relies
    on: a ``traceEvents`` array whose members carry ``ph``/``name``/
    ``pid``/``tid``, microsecond ``ts`` on phase-X/i events, and a
    non-negative ``dur`` on complete (phase-X) events.
    """
    problems: List[str] = []
    if not isinstance(trace, dict):
        return [f"trace must be a JSON object, got {type(trace).__name__}"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not an array"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "B", "E", "i", "I", "M", "C"):
            problems.append(f"{where}: bad phase {ph!r}")
            continue
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            problems.append(f"{where}: missing name")
        if "pid" not in ev:
            problems.append(f"{where}: missing pid")
        if ph != "M":
            if "tid" not in ev:
                problems.append(f"{where}: missing tid")
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(f"{where}: bad ts {ts!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: bad dur {dur!r}")
        args = ev.get("args")
        if args is not None and not isinstance(args, dict):
            problems.append(f"{where}: args not an object")
    return problems


# -- JSON-lines event log -----------------------------------------------------------


def to_jsonl_lines(tracer: Tracer) -> Iterator[str]:
    """One JSON object per span, in completion order."""
    for span in tracer.spans:
        yield json.dumps(
            {
                "trace_id": tracer.trace_id,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "name": span.name,
                "category": span.category,
                "timeline": span.timeline,
                "track": span.track,
                "start": span.start,
                "duration": span.duration,
                "attrs": _safe_attrs(span.attrs),
            },
            sort_keys=True,
        )


def write_jsonl(tracer: Tracer, path: str) -> int:
    """Write the JSON-lines event log; returns the number of lines."""
    count = 0
    with open(path, "w") as fh:
        for line in to_jsonl_lines(tracer):
            fh.write(line + "\n")
            count += 1
    return count


# -- summaries ----------------------------------------------------------------------


def summarize_spans(spans: List[Span]) -> List[Tuple[str, str, int, float, float, float]]:
    """Aggregate rows ``(timeline, name, count, total, mean, max)``.

    Sorted by total duration, descending — the "where did the time go"
    table :func:`repro.reporting.render_trace` prints.
    """
    agg: Dict[Tuple[str, str], List[float]] = {}
    for span in spans:
        agg.setdefault((span.timeline, span.name), []).append(span.duration)
    rows = []
    for (timeline, name), durations in agg.items():
        total = float(sum(durations))
        rows.append(
            (timeline, name, len(durations), total, total / len(durations), max(durations))
        )
    rows.sort(key=lambda r: (-r[3], r[0], r[1]))
    return rows


def summarize_trace_file(trace: Dict[str, Any]) -> List[Tuple[str, str, int, float, float, float]]:
    """Same aggregation computed from a loaded Chrome trace object."""
    spans: List[Span] = []
    for ev in trace.get("traceEvents", []):
        if not isinstance(ev, dict) or ev.get("ph") != "X":
            continue
        spans.append(
            Span(
                span_id=int(ev.get("args", {}).get("span_id", -1)),
                name=str(ev.get("name", "")),
                category=str(ev.get("cat", "")),
                timeline=HOST if ev.get("pid") == PID_HOST else SIM,
                track=str(ev.get("tid", "")),
                start=float(ev.get("ts", 0.0)) / 1e6,
                duration=float(ev.get("dur", 0.0)) / 1e6,
            )
        )
    return summarize_spans(spans)
