"""Benchmark JSON artifacts: schema validation, determinism, round-trips."""

import json

import pytest

from repro.errors import ReproError
from repro.obs.bench import (
    BENCH_SCHEMA_VERSION,
    bench_payload,
    load_bench_json,
    validate_bench_payload,
    write_bench_json,
)

ROWS = [{"m": 4, "seconds": 0.25, "label": "a"}, {"m": 8, "seconds": 0.5, "label": "b"}]


class TestPayload:
    def test_assembles_and_validates(self):
        payload = bench_payload(
            "demo", ROWS, params={"batch": 4}, summary={"crossover_m": None}
        )
        assert payload["schema_version"] == BENCH_SCHEMA_VERSION
        assert validate_bench_payload(payload) is payload

    def test_metrics_block_is_optional(self):
        payload = {**bench_payload("demo", ROWS), "metrics": {"counters": {"gemm": 3}}}
        assert validate_bench_payload(payload)["metrics"] == {"counters": {"gemm": 3}}

    def test_rows_are_copied(self):
        row = {"m": 4}
        payload = bench_payload("demo", [row])
        row["m"] = 99
        assert payload["rows"][0]["m"] == 4


class TestValidation:
    def test_rejects_wrong_schema_version(self):
        payload = bench_payload("demo", ROWS)
        payload["schema_version"] = BENCH_SCHEMA_VERSION + 1
        with pytest.raises(ReproError, match="schema_version"):
            validate_bench_payload(payload)

    def test_rejects_empty_bench_name(self):
        with pytest.raises(ReproError, match="'bench'"):
            validate_bench_payload(
                {"schema_version": BENCH_SCHEMA_VERSION, "bench": "", "rows": ROWS}
            )

    def test_rejects_empty_rows(self):
        with pytest.raises(ReproError, match="'rows'"):
            bench_payload("demo", [])

    def test_rejects_non_scalar_row_values(self):
        with pytest.raises(ReproError, match="rows\\[0\\]"):
            bench_payload("demo", [{"sizes": [1, 2, 3]}])

    def test_rejects_non_finite_floats(self):
        with pytest.raises(ReproError, match="non-finite"):
            bench_payload("demo", [{"seconds": float("nan")}])
        with pytest.raises(ReproError, match="non-finite"):
            bench_payload("demo", ROWS, summary={"speedup": float("inf")})

    def test_rejects_unknown_top_level_keys(self):
        payload = bench_payload("demo", ROWS)
        payload["timestamp"] = "2026-01-01"  # deliberately excluded field
        with pytest.raises(ReproError, match="unknown top-level"):
            validate_bench_payload(payload)

    def test_rejects_non_dict_payload(self):
        with pytest.raises(ReproError):
            validate_bench_payload([ROWS])


class TestFileRoundTrip:
    def test_write_then_load(self, tmp_path):
        path = tmp_path / "bench.json"
        payload = bench_payload("demo", ROWS, summary={"best": 0.25})
        write_bench_json(path, payload)
        assert load_bench_json(path) == payload

    def test_writing_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        payload = bench_payload("demo", ROWS, params={"z": 1, "a": 2})
        write_bench_json(a, payload)
        write_bench_json(b, json.loads(json.dumps(payload)))
        assert a.read_bytes() == b.read_bytes()

    def test_write_refuses_invalid_payload(self, tmp_path):
        path = tmp_path / "bad.json"
        with pytest.raises(ReproError):
            write_bench_json(path, {"bench": "demo"})
        assert not path.exists()

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ReproError, match="missing"):
            load_bench_json(tmp_path / "absent.json")

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(ReproError, match="not valid JSON"):
            load_bench_json(path)

    def test_load_schema_invalid_file(self, tmp_path):
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps({"schema_version": 0, "bench": "x", "rows": [{}]}))
        with pytest.raises(ReproError, match="schema_version"):
            load_bench_json(path)
