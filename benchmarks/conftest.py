"""Shared infrastructure for the experiment benchmarks.

Each benchmark computes its experiment's rows, asserts its claim, and
hands both artifact kinds to the ``report`` fixture — the one writer of
every committed number: rendered tables go to ``benchmarks/results/``
(and are echoed after the pytest run, so they are visible regardless of
output capture), machine-readable payloads (:mod:`repro.obs.bench`
schema) to ``BENCH_*.json`` at the repo root.  ``make bench`` regenerates
all of them; CI deletes them first and fails on any ``git diff``.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

import pytest

from repro.obs.bench import write_bench_json

_REPORTS: List[Tuple[str, str]] = []
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
_RESULTS_DIR = os.path.join(_BENCH_DIR, "results")
_REPO_ROOT = os.path.dirname(_BENCH_DIR)


class Reporter:
    """Writes one experiment's artifacts: its table, and its JSON if any."""

    def add(self, experiment_id: str, text: str) -> None:
        _REPORTS.append((experiment_id, text))
        os.makedirs(_RESULTS_DIR, exist_ok=True)
        path = os.path.join(_RESULTS_DIR, f"{experiment_id}.txt")
        with open(path, "w") as handle:
            handle.write(text + "\n")

    def add_json(self, filename: str, payload: Dict) -> None:
        """Validate ``payload`` and write it as ``<repo root>/<filename>``."""
        write_bench_json(os.path.join(_REPO_ROOT, filename), payload)


@pytest.fixture
def report() -> Reporter:
    """The experiment's artifact writer."""
    return Reporter()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    terminalreporter.section("reproduced experiment tables")
    for experiment_id, text in sorted(_REPORTS):
        terminalreporter.write_line("")
        terminalreporter.write_line(f"==== {experiment_id} ====")
        for line in text.splitlines():
            terminalreporter.write_line(line)
