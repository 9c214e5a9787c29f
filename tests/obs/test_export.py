"""Chrome-trace / JSONL export, validation, and summary round-trips."""

import json

import pytest

from repro import obs
from repro.obs.export import (
    PID_HOST,
    PID_SIM,
    load_trace,
    summarize_spans,
    summarize_trace_file,
    to_chrome_trace,
    to_jsonl_lines,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)


def make_tracer():
    """Two host spans (nested) + two sim spans on distinct tracks."""
    ticks = iter(range(100))
    tracer = obs.Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("solve", category="mip"):
        with tracer.span("node", category="mip", node=0):
            pass
    tracer.sim_span("gemv", 0.5, 0.25, "gpu0", category="kernel")
    tracer.sim_span("h2d", 0.0, 0.5, "link", category="transfer", nbytes=64)
    return tracer


class TestChromeTrace:
    def test_exports_validate_clean(self):
        tracer = make_tracer()
        trace = to_chrome_trace(tracer)
        assert validate_chrome_trace(trace) == []
        assert trace["otherData"]["trace_id"] == tracer.trace_id
        assert trace["otherData"]["spans"] == 4

    def test_timelines_map_to_processes(self):
        trace = to_chrome_trace(make_tracer())
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        by_name = {e["name"]: e for e in xs}
        assert by_name["solve"]["pid"] == PID_HOST
        assert by_name["gemv"]["pid"] == PID_SIM
        assert by_name["h2d"]["pid"] == PID_SIM
        # Distinct sim tracks get distinct thread rows.
        assert by_name["gemv"]["tid"] != by_name["h2d"]["tid"]

    def test_track_names_emitted_as_metadata(self):
        trace = to_chrome_trace(make_tracer())
        thread_names = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {"gpu0", "link"} <= thread_names

    def test_units_are_microseconds(self):
        trace = to_chrome_trace(make_tracer())
        gemv = next(e for e in trace["traceEvents"] if e.get("name") == "gemv")
        assert gemv["ts"] == pytest.approx(0.5e6)
        assert gemv["dur"] == pytest.approx(0.25e6)

    def test_parent_links_survive_export(self):
        tracer = make_tracer()
        trace = to_chrome_trace(tracer)
        solve = tracer.find("solve")[0]
        node_ev = next(e for e in trace["traceEvents"] if e.get("name") == "node")
        assert node_ev["args"]["parent_id"] == solve.span_id

    def test_file_round_trip(self, tmp_path):
        tracer = make_tracer()
        path = str(tmp_path / "trace.json")
        written = write_chrome_trace(tracer, path)
        loaded = load_trace(path)
        assert loaded == json.loads(json.dumps(written))
        assert validate_chrome_trace(loaded) == []
        # The summary recomputed from disk matches the in-memory one.
        from_file = summarize_trace_file(loaded)
        in_memory = summarize_spans(tracer.spans)
        assert [row[:4] for row in from_file] == pytest.approx(
            [row[:4] for row in in_memory]
        )

    def test_numpy_attrs_are_json_safe(self):
        import numpy as np

        tracer = make_tracer()
        tracer.sim_span("k", 0.0, 1.0, "gpu0", m=np.int64(5), x=np.float64(0.5))
        trace = to_chrome_trace(tracer)
        assert validate_chrome_trace(trace) == []
        json.dumps(trace)  # must not raise


class TestValidate:
    def test_rejects_non_object(self):
        assert validate_chrome_trace([1, 2]) != []
        assert validate_chrome_trace({"nope": 1}) != []

    def test_flags_bad_events(self):
        trace = {
            "traceEvents": [
                {"ph": "Q", "name": "x", "pid": 1, "tid": 0, "ts": 0.0},
                {"ph": "X", "name": "", "pid": 1, "tid": 0, "ts": 0.0, "dur": 1.0},
                {"ph": "X", "name": "neg", "pid": 1, "tid": 0, "ts": -1.0, "dur": 1.0},
                {"ph": "X", "name": "nodur", "pid": 1, "tid": 0, "ts": 0.0},
            ]
        }
        problems = validate_chrome_trace(trace)
        assert len(problems) == 4
        assert any("bad phase" in p for p in problems)
        assert any("missing name" in p for p in problems)
        assert any("bad ts" in p for p in problems)
        assert any("bad dur" in p for p in problems)


class TestJsonl:
    def test_line_per_span(self, tmp_path):
        tracer = make_tracer()
        path = str(tmp_path / "trace.jsonl")
        assert write_jsonl(tracer, path) == 4
        lines = [json.loads(line) for line in open(path)]
        assert [rec["name"] for rec in lines] == ["node", "solve", "gemv", "h2d"]
        assert all(rec["trace_id"] == tracer.trace_id for rec in lines)

    def test_records_carry_span_fields(self):
        tracer = make_tracer()
        rec = json.loads(list(to_jsonl_lines(tracer))[-1])
        assert rec["name"] == "h2d"
        assert rec["timeline"] == obs.SIM
        assert rec["track"] == "link"
        assert rec["attrs"] == {"nbytes": 64}


class TestSummaries:
    def test_rows_aggregate_and_sort_by_total(self):
        tracer = obs.Tracer(clock=lambda: 0.0)
        tracer.sim_span("small", 0.0, 0.1, "a")
        tracer.sim_span("big", 0.0, 1.0, "a")
        tracer.sim_span("big", 1.0, 3.0, "a")
        rows = summarize_spans(tracer.spans)
        assert rows[0][:3] == (obs.SIM, "big", 2)
        assert rows[0][3] == pytest.approx(4.0)  # total
        assert rows[0][4] == pytest.approx(2.0)  # mean
        assert rows[0][5] == pytest.approx(3.0)  # max
        assert rows[1][1] == "small"
