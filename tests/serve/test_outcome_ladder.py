"""The worker pool's status → outcome mapping, one row per status.

Every member the pool answers — a lockstep row, a solo LP, a MIP, a
solver error — gets its response outcome from the solver status alone,
except that a budget stop inside the fused lockstep batch carries no
iterate and so answers nothing.
"""

import numpy as np
import pytest

import repro.api
import repro.serve.scheduler as scheduler
from repro.api import SolveReport
from repro.errors import LPError
from repro.lp.batch_simplex import BatchLPResult
from repro.lp.problem import LinearProgram
from repro.lp.result import LPResult, LPStatus
from repro.mip.result import MIPResult, MIPStatus
from repro.problems.knapsack import generate_knapsack
from repro.serve.batching import bucket_key
from repro.serve.request import Outcome, SolveRequest
from repro.serve.scheduler import WorkerPool

OK, PARTIAL, FAILED = Outcome.OK, Outcome.PARTIAL, Outcome.FAILED

#: (path, solver status, outcome).  "lockstep" runs the fused batch,
#: "lp" a solo LP (an equality row keeps it off the lockstep path),
#: "mip" the per-member B&B path; "LPError" is a raised solver error.
ROWS = [
    ("lp", "optimal", OK),
    ("lp", "infeasible", OK),
    ("lp", "unbounded", OK),
    ("mip", "optimal", OK),
    ("mip", "infeasible", OK),
    ("mip", "heuristic", OK),
    ("lockstep", "optimal", OK),
    ("lockstep", "infeasible", OK),
    ("lockstep", "unbounded", OK),
    ("mip", "node_limit", PARTIAL),
    ("mip", "time_limit", PARTIAL),
    ("mip", "iteration_limit", PARTIAL),
    ("lp", "iteration_limit", PARTIAL),
    ("lp", "time_limit", PARTIAL),
    ("lockstep", "iteration_limit", FAILED),
    ("lockstep", "time_limit", FAILED),
    ("lockstep", "numerical", FAILED),
    ("lp", "numerical", FAILED),
    ("mip", "no_incumbent", FAILED),
    ("lp", "LPError", FAILED),
    ("mip", "LPError", FAILED),
]


def _problem(path):
    if path == "mip":
        return generate_knapsack(6, seed=1)
    if path == "lockstep":
        return generate_knapsack(6, seed=1).relaxation()
    return LinearProgram(
        c=np.array([1.0, 1.0]),
        a_eq=np.array([[1.0, 1.0]]),
        b_eq=np.array([1.0]),
        ub=np.array([1.0, 1.0]),
    )


def _fake_solve(path, status):
    """A stand-in for the api's inner solve that answers ``status``."""

    def fake(problem, options):
        if status == "LPError":
            raise LPError("injected")
        report = SolveReport(
            status=status, objective=1.0, x=None, strategy="fake"
        )
        if path == "lp":
            report.lp_result = LPResult(status=LPStatus(status))
        elif status in {s.value for s in MIPStatus}:
            report.result = MIPResult(status=MIPStatus(status))
        return report

    return fake


def _fake_batch(status):
    def fake(lps, device):
        n = lps[0].n
        return BatchLPResult(
            statuses=[LPStatus(status)] * len(lps),
            objectives=np.ones(len(lps)),
            x=np.zeros((len(lps), n)),
            iterations=3,
        )

    return fake


@pytest.mark.parametrize("path,status,outcome", ROWS)
def test_outcome_row(monkeypatch, path, status, outcome):
    if path == "lockstep":
        monkeypatch.setattr(
            scheduler, "solve_lp_batch_on_device", _fake_batch(status)
        )
    else:
        monkeypatch.setattr(repro.api, "_solve", _fake_solve(path, status))
    request = SolveRequest(problem=_problem(path), request_id=0)
    pool = WorkerPool(num_workers=1)
    out = pool.dispatch(bucket_key(request.problem), [request], when=0.0)
    assert pool.metrics.count("serve.dispatch.lockstep") == (path == "lockstep")
    (response,) = out.responses
    assert response.solver_status == status
    assert response.outcome is outcome
