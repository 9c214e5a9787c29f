"""Machine-readable benchmark artifacts: a stable JSON schema.

The E-series benchmarks render human tables (:mod:`repro.reporting`),
but a table is a dead end for tooling — CI gates, regression diffs, and
cross-run plots all want numbers, not box-drawing.  This module defines
the one JSON shape every benchmark exports:

``{"schema_version": 1, "bench": <name>, "params": {...},
"rows": [{...}, ...], "summary": {...}, "metrics": {...}}``

- ``rows`` is the measured sweep: a list of flat dicts of JSON scalars,
  one per configuration point (a crossover sweep's per-size timings, a
  throughput sweep's per-load summaries);
- ``params`` pins the knobs the sweep ran under, so a diff between two
  artifacts is meaningful;
- ``summary`` holds the headline derived quantities (the crossover
  point, the peak throughput);
- ``metrics`` is optional and takes a
  :meth:`repro.obs.registry.MetricsRegistry.to_dict` export verbatim.

Writing is deterministic — sorted keys, fixed separators, trailing
newline — so re-running an unchanged benchmark reproduces the artifact
byte-for-byte (timestamps are deliberately excluded).  That is what the
CI ``artifacts`` job gates on: it deletes every committed artifact,
re-runs the benchmarks (``make bench``; each ``benchmarks/bench_*.py``
is the one producer of its files) and fails on any ``git diff``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.errors import ReproError

#: Bump when the artifact shape changes incompatibly.
BENCH_SCHEMA_VERSION = 1

_SCALAR_TYPES = (bool, int, float, str, type(None))


def _check_scalar_map(mapping: Any, where: str) -> None:
    if not isinstance(mapping, dict):
        raise ReproError(f"bench payload: {where} must be a dict, got {type(mapping).__name__}")
    for key, value in mapping.items():
        if not isinstance(key, str):
            raise ReproError(f"bench payload: {where} has a non-string key {key!r}")
        if not isinstance(value, _SCALAR_TYPES):
            raise ReproError(
                f"bench payload: {where}[{key!r}] must be a JSON scalar, "
                f"got {type(value).__name__}"
            )
        if isinstance(value, float) and not math.isfinite(value):
            raise ReproError(
                f"bench payload: {where}[{key!r}] is non-finite ({value!r}); "
                "encode missing measurements as null"
            )


def bench_payload(
    name: str,
    rows: List[Dict[str, Any]],
    params: Optional[Dict[str, Any]] = None,
    summary: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble (and validate) one benchmark artifact payload."""
    payload: Dict[str, Any] = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "bench": name,
        "params": dict(params or {}),
        "rows": [dict(row) for row in rows],
        "summary": dict(summary or {}),
    }
    validate_bench_payload(payload)
    return payload


def validate_bench_payload(payload: Any) -> Dict[str, Any]:
    """Check an artifact against the schema; returns it on success.

    Raises :class:`repro.errors.ReproError` naming the first offending
    field — the error message is the CI gate's failure output, so it
    points at the field, not just "invalid".
    """
    if not isinstance(payload, dict):
        raise ReproError(f"bench payload must be a dict, got {type(payload).__name__}")
    version = payload.get("schema_version")
    if version != BENCH_SCHEMA_VERSION:
        raise ReproError(
            f"bench payload: schema_version {version!r} != {BENCH_SCHEMA_VERSION}"
        )
    bench = payload.get("bench")
    if not isinstance(bench, str) or not bench:
        raise ReproError("bench payload: 'bench' must be a non-empty string")
    rows = payload.get("rows")
    if not isinstance(rows, list) or not rows:
        raise ReproError("bench payload: 'rows' must be a non-empty list")
    for i, row in enumerate(rows):
        _check_scalar_map(row, f"rows[{i}]")
    _check_scalar_map(payload.get("params", {}), "params")
    _check_scalar_map(payload.get("summary", {}), "summary")
    metrics = payload.get("metrics")
    if metrics is not None and not isinstance(metrics, dict):
        raise ReproError("bench payload: 'metrics' must be a dict when present")
    unknown = set(payload) - {
        "schema_version",
        "bench",
        "params",
        "rows",
        "summary",
        "metrics",
    }
    if unknown:
        raise ReproError(f"bench payload: unknown top-level keys {sorted(unknown)}")
    return payload


def write_bench_json(path: Union[str, Path], payload: Dict[str, Any]) -> Path:
    """Validate and write one artifact; deterministic byte-for-byte."""
    validate_bench_payload(payload)
    path = Path(path)
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n")
    return path


def load_bench_json(path: Union[str, Path]) -> Dict[str, Any]:
    """Load and validate one artifact (what regression tooling reads with)."""
    path = Path(path)
    if not path.exists():
        raise ReproError(f"bench artifact missing: {path}")
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ReproError(f"bench artifact {path} is not valid JSON: {exc}") from exc
    return validate_bench_payload(payload)
