"""Schema stability of the one shared report shape.

:func:`repro.reporting.report_dict` is the canonical JSON report; the
two public surfaces (:meth:`repro.api.SolveReport.to_dict` and
:meth:`repro.serve.SolveResponse.to_dict`) both delegate to it.  These
tests pin the contract dashboards rely on: the core keys always come
first and in the same order, ``bounds`` always carries the same
sub-keys, and non-finite numbers always export as ``None``.
"""

import json

import numpy as np

from repro.api import SolveOptions, SolveReport, solve
from repro.problems.knapsack import generate_knapsack
from repro.reporting import CORE_REPORT_KEYS, report_dict
from repro.serve.service import SolveService


def core_prefix(d):
    return tuple(list(d)[: len(CORE_REPORT_KEYS)])


class TestCanonicalShape:
    def test_core_keys_and_order(self):
        d = report_dict(status="optimal", objective=1.0, strategy="direct")
        assert core_prefix(d) == CORE_REPORT_KEYS
        assert set(d["bounds"]) == {"best_bound", "gap"}

    def test_non_finite_numbers_export_as_none(self):
        d = report_dict(
            status="infeasible",
            objective=float("nan"),
            strategy=None,
            best_bound=float("-inf"),
            gap=float("inf"),
        )
        assert d["objective"] is None
        assert d["bounds"]["best_bound"] is None
        assert d["bounds"]["gap"] is None

    def test_optional_sections_omitted_until_supplied(self):
        bare = report_dict(status="ok", objective=0.0, strategy="lp")
        assert "nodes" not in bare and "metrics" not in bare
        full = report_dict(
            status="ok", objective=0.0, strategy="lp", nodes=3, metrics={}
        )
        assert list(full)[-2:] == ["nodes", "metrics"]


class TestSurfacesAgree:
    def test_all_three_surfaces_share_the_core(self):
        problem = generate_knapsack(8, seed=3)
        report = solve(problem, SolveOptions(strategy="hybrid"))
        api_dict = report.to_dict()

        service = SolveService(num_workers=1)
        service.submit(problem, at=0.0)
        service.close()
        serve_dict = service.result(0).to_dict()

        for d in (api_dict, serve_dict):
            assert core_prefix(d) == CORE_REPORT_KEYS
            assert set(d["bounds"]) == {"best_bound", "gap"}
            json.dumps(d, default=float)  # serializable end to end
        assert api_dict["status"] == serve_dict["status"] == "optimal"
        assert serve_dict["objective"] == api_dict["objective"]

    def test_heuristic_mode_flows_to_every_surface(self):
        problem = generate_knapsack(12, seed=1)
        report = solve(problem, SolveOptions(mode="heuristic_only"))
        assert report.to_dict()["mode"] == "heuristic_only"

        service = SolveService(num_workers=1)
        service.submit(problem, at=0.0, mode="heuristic_only", gap_target=0.1)
        service.close()
        d = service.result(0).to_dict()
        assert d["mode"] == "heuristic_only"
        assert d["status"] == "heuristic"
        assert d["bounds"]["gap"] is not None

    def test_exact_reports_default_mode(self):
        report = SolveReport(
            status="optimal", objective=1.0, x=None, strategy="direct"
        )
        d = report.to_dict()
        assert d["mode"] == "exact"
        assert np.isfinite(d["objective"])
