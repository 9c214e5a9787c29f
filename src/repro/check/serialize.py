"""Replayable repro files for check failures.

A repro file is a single JSON document carrying the complete (shrunk)
instance, the failing oracle's kind and the seed it ran with, plus the
failure's provenance — the fuzz campaign's seed and iteration and the
instance's size before and after shrinking.  Arrays go through
:mod:`repro.mip.checkpoint`'s codec (infinities as strings, floats at
full ``repr`` precision), so a loaded instance is bit-identical to the
one that failed.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

import numpy as np

from repro.errors import ProblemFormatError
from repro.lp.problem import ARRAYS
from repro.mip.checkpoint import decode_array, encode_array, write_json
from repro.mip.problem import MIPProblem

#: Version 2: ``seed`` is the oracle's seed (version 1 stored the
#: campaign's), and the campaign seed and iteration sit in ``provenance``.
REPRO_FORMAT_VERSION = 2


def problem_to_dict(problem: MIPProblem) -> Dict:
    """Serialize a :class:`MIPProblem` to plain JSON-safe data."""
    doc = {"name": problem.name, "integer": [bool(v) for v in problem.integer]}
    doc.update((k, encode_array(a)) for k, a in problem.arrays().items())
    return doc


def problem_from_dict(doc: Dict) -> MIPProblem:
    """Rebuild a :class:`MIPProblem` from :func:`problem_to_dict` data."""
    return MIPProblem(
        integer=np.array(doc["integer"], dtype=bool),
        name=doc.get("name", "repro"),
        **{k: decode_array(doc.get(k)) for k in ARRAYS},
    )


def save_repro(
    path: str,
    kind: str,
    problem: MIPProblem,
    seed: int,
    detail: str = "",
    provenance: Optional[Dict] = None,
) -> None:
    """Write a repro file (atomically via a temp file).

    ``seed`` is the one the ``kind`` oracle ran with; replay calls the
    oracle with it again.
    """
    doc = {
        "version": REPRO_FORMAT_VERSION,
        "kind": kind,
        "seed": seed,
        "detail": detail,
        "provenance": provenance or {},
        "problem": problem_to_dict(problem),
    }
    write_json(path, doc, indent=1)


def load_repro(path: str) -> Dict:
    """Read a repro file; returns the document with ``problem`` rebuilt."""
    with open(path) as handle:
        doc = json.load(handle)
    version = doc.get("version")
    if version != REPRO_FORMAT_VERSION:
        raise ProblemFormatError(f"unsupported repro file version {version!r}")
    doc["problem"] = problem_from_dict(doc["problem"])
    return doc
