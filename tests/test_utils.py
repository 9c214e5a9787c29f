"""Tests for metrics, reporting, config, and the error hierarchy."""

import numpy as np
import pytest

from repro import errors
from repro.config import DEFAULT_SOLVER, DEFAULT_TOLERANCES, SolverDefaults, Tolerances
from repro.metrics import Metrics
from repro.reporting import (
    format_bytes,
    format_seconds,
    format_value,
    render_series,
    render_table,
    sparkline,
)


class TestMetrics:
    def test_counters(self):
        m = Metrics()
        m.inc("a")
        m.inc("a", 4)
        assert m.count("a") == 5
        assert m.count("missing") == 0

    def test_times(self):
        m = Metrics()
        m.add_time("t", 1.5)
        m.add_time("t", 0.5)
        assert m.time("t") == pytest.approx(2.0)
        assert m.time("missing") == 0.0

    def test_merge(self):
        a, b = Metrics(), Metrics()
        a.inc("x", 2)
        b.inc("x", 3)
        b.add_time("t", 1.0)
        a.merge(b)
        assert a.count("x") == 5
        assert a.time("t") == 1.0

    def test_to_dict_structured_and_sorted(self):
        m = Metrics()
        m.inc("b", 2)
        m.inc("a")
        m.add_time("t", 0.5)
        data = m.to_dict()
        assert data == {"counters": {"a": 1, "b": 2}, "times": {"t": 0.5}}
        assert list(data["counters"]) == ["a", "b"]
        # Plain dict copies: mutating the view leaves the metrics alone.
        data["counters"]["a"] = 99
        assert m.count("a") == 1


class TestReporting:
    def test_format_value(self):
        assert format_value(True) == "yes"
        assert format_value(12345) == "12,345"
        assert format_value(0.0) == "0"
        assert format_value(1.5e-9) == "1.500e-09"
        assert format_value("text") == "text"

    def test_format_seconds(self):
        assert format_seconds(0) == "0"
        assert format_seconds(1.5) == "1.5 s"
        assert "ms" in format_seconds(2e-3)
        assert "µs" in format_seconds(3e-6)
        assert "ns" in format_seconds(4e-9)

    def test_format_bytes(self):
        assert format_bytes(512) == "512 B"
        assert format_bytes(2048) == "2 KiB"
        assert "GiB" in format_bytes(3 * 1024**3)

    def test_render_table_aligns(self):
        text = render_table(["a", "bb"], [(1, 2), (333, 4)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len({len(line) for line in lines[1:]}) == 1  # equal widths

    def test_sparkline(self):
        assert sparkline([]) == ""
        assert sparkline([1, 1, 1]) == "▁▁▁"
        spark = sparkline([0, 5, 10])
        assert spark[0] == "▁" and spark[-1] == "█"

    def test_render_series_contains_sparkline(self):
        text = render_series("x", [1, 2], [("y", [3.0, 9.0])])
        assert "y" in text and "█" in text

    def test_render_trace_rows(self):
        from repro.reporting import render_trace

        rows = [
            ("sim", "gemv", 12, 3e-3, 2.5e-4, 5e-4),
            ("host", "mip.solve", 1, 1.5, 1.5, 1.5),
        ]
        text = render_trace(rows, title="where the time went")
        assert "where the time went" in text
        assert "timeline" in text and "span" in text
        assert "gemv" in text and "3 ms" in text
        assert "mip.solve" in text and "1.5 s" in text


class TestConfig:
    def test_simplex_limit_scales(self):
        d = SolverDefaults()
        assert d.simplex_iter_limit(100, 100) > d.simplex_iter_limit(1, 1)

    def test_tolerances_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_TOLERANCES.feasibility = 1.0

    def test_config_defaults(self):
        assert DEFAULT_TOLERANCES == Tolerances()
        assert DEFAULT_SOLVER == SolverDefaults()
        assert DEFAULT_SOLVER.simplex_iter_limit(0, 0) == 2000


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(errors.SingularMatrixError, errors.LinearAlgebraError)
        assert issubclass(errors.LinearAlgebraError, errors.ReproError)
        assert issubclass(errors.DeviceMemoryError, errors.DeviceError)
        assert issubclass(errors.DeadlockError, errors.CommError)
        assert issubclass(errors.MIPError, errors.SolverError)
        assert issubclass(errors.ServiceSaturated, errors.ServiceError)
        assert issubclass(errors.RequestTimeout, errors.ServiceError)
        assert issubclass(errors.ServiceClosed, errors.ServiceError)
        assert issubclass(errors.ServiceError, errors.ReproError)

    def test_service_error_fields(self):
        saturated = errors.ServiceSaturated(12, 8)
        assert saturated.queue_depth == 12 and saturated.limit == 8
        timeout = errors.RequestTimeout(3, 0.25)
        assert timeout.request_id == 3 and "0.25" in str(timeout)

    def test_device_memory_error_fields(self):
        err = errors.DeviceMemoryError(100, 40, 200)
        assert err.requested == 100
        assert err.free == 40
        assert "100 B" in str(err)

    def test_catch_all_library_errors(self):
        with pytest.raises(errors.ReproError):
            raise errors.ShapeError("bad")
