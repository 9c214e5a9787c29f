"""Disk persistence for consistent snapshots (UG-style checkpointing).

§2.3: UG "includes implementations of ramp-up, dynamic load balancing,
and check-pointing and restarting mechanisms."  This module serializes a
:class:`repro.mip.snapshot.SearchSnapshot` to a single JSON document —
small (bound boxes + incumbent only), human-inspectable, and restartable
across processes.
"""

from __future__ import annotations

import json
import os
from typing import Optional

import numpy as np

from repro.errors import MIPError
from repro.mip.snapshot import SearchSnapshot

FORMAT_VERSION = 1


def encode_array(arr: Optional[np.ndarray]) -> Optional[list]:
    """JSON-safe nested lists of an array (any rank); None stays None.

    Infinities must survive JSON, so they are encoded as the strings
    ``"inf"`` / ``"-inf"``; every other value is stored at full
    ``repr`` precision, so decoding is bit-identical.
    """
    if arr is None:
        return None
    flat = np.asarray(arr, dtype=np.float64)
    if flat.ndim > 1:
        return [encode_array(row) for row in flat]
    return [
        ("inf" if v == np.inf else "-inf" if v == -np.inf else float(v))
        for v in flat
    ]


def decode_array(values: Optional[list]) -> Optional[np.ndarray]:
    """Inverse of :func:`encode_array`."""
    if values is None:
        return None
    if values and isinstance(values[0], list):
        return np.array([decode_array(row) for row in values])
    return np.array(
        [np.inf if v == "inf" else -np.inf if v == "-inf" else float(v) for v in values]
    )


def write_json(path: str, doc: dict, indent: Optional[int] = None) -> None:
    """Write ``doc`` atomically: a temp file, then ``os.replace``."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(doc, handle, indent=indent)
    os.replace(tmp, path)


def save_snapshot(snapshot: SearchSnapshot, path: str) -> None:
    """Write a snapshot as JSON (atomically via a temp file)."""
    doc = {
        "version": FORMAT_VERSION,
        "incumbent_objective": (
            None
            if snapshot.incumbent_objective == -np.inf
            else float(snapshot.incumbent_objective)
        ),
        "incumbent_x": encode_array(snapshot.incumbent_x),
        "leaves": [
            {"lb": encode_array(lb), "ub": encode_array(ub)}
            for lb, ub in snapshot.leaves
        ],
    }
    write_json(path, doc)


def load_snapshot(path: str) -> SearchSnapshot:
    """Read a snapshot written by :func:`save_snapshot`."""
    with open(path) as handle:
        doc = json.load(handle)
    version = doc.get("version")
    if version != FORMAT_VERSION:
        raise MIPError(f"unsupported checkpoint version {version!r}")
    incumbent = doc.get("incumbent_objective")
    return SearchSnapshot(
        leaves=[
            (decode_array(leaf["lb"]), decode_array(leaf["ub"]))
            for leaf in doc["leaves"]
        ],
        incumbent_objective=-np.inf if incumbent is None else float(incumbent),
        incumbent_x=decode_array(doc.get("incumbent_x")),
    )
