"""Executed = charged for the heuristic portfolio: one LP, one stream.

Every LP the portfolio runs — its own root when it runs standalone, a
polish, a fix-and-propagate residual, a dive step, an LNS sub-MIP —
launches exactly one :func:`repro.device.kernels.launch_lp_stream`, right
after it ran, at its standard form's ``(m, n)`` and with the pivots that
ran (a refused warm attempt's included).  Spies inside the one LP door
(:func:`repro.lp.warm.solve_warm_or_cold`: its cold solve, both loops
in one, and its audited warm re-solve), kept to the calls the
portfolio's ``_solve_lp`` makes, and on the sub-MIP searches log what ran; a spy on the launcher
logs what was charged; the two logs must pair up one for one, in order.
"""

import sys

import pytest

from repro.api import SolveOptions, solve
from repro.device import kernels as K
from repro.device.gpu import Device
from repro.device.spec import V100
from repro.lp import warm as warm_module
from repro.mip import portfolio
from repro.mip import solver as solver_module
from repro.mip.portfolio import PortfolioOptions, run_portfolio
from repro.mip.solver import SolverOptions
from repro.problems.random_mip import generate_random_mip

OPTIONS = PortfolioOptions(restarts=16, n_jobs=8, fj_sweeps=60, lns_rounds=2)
#: Continuous columns (a polish per candidate), fractional residuals (dives).
PROBLEM = generate_random_mip(12, 8, seed=11, bound=4.0)


@pytest.fixture
def log(monkeypatch):
    entries = []
    real_cold = warm_module._solve_cold
    real_warm = warm_module.warm_resolve
    real_launch = K.launch_lp_stream

    def asker():
        """The phase that asked for the LP, or None when the door was
        entered from elsewhere (the tree's node LPs)."""
        # spy <- the door <- portfolio._solve_lp <- the phase
        if sys._getframe(3).f_code is not portfolio._solve_lp.__code__:
            return None
        return sys._getframe(4).f_code.co_name

    def cold(sf, *args, **kwargs):
        res, who = real_cold(sf, *args, **kwargs), asker()
        if who is not None:
            entries.append(("lp", who, sf.a.shape, res.iterations, True))
        return res

    def warm(sf, *args, **kwargs):
        outcome, who = real_warm(sf, *args, **kwargs), asker()
        if outcome is not None and who is not None:
            entries.append((
                "lp", who, sf.a.shape, outcome.result.iterations, outcome.warm_used,
            ))
        return outcome

    class SubSearch(solver_module.BranchAndBoundSolver):
        def solve(self):
            result = super().solve()
            shape = self.problem.relaxation().bounded_shape()
            entries.append(("lp", "_lns", shape, result.stats.lp_iterations, True))
            return result

    def launch(device, m, n, iterations):
        entries.append(("launch", (m, n), iterations))
        real_launch(device, m, n, iterations)

    monkeypatch.setattr(warm_module, "_solve_cold", cold)
    monkeypatch.setattr(warm_module, "warm_resolve", warm)
    monkeypatch.setattr(solver_module, "BranchAndBoundSolver", SubSearch)
    monkeypatch.setattr(K, "launch_lp_stream", launch)
    return entries


def pair_up(entries) -> list:
    """The askers of the LPs, each checked against the one launch after it."""
    askers, ran = [], []
    for entry in entries:
        if entry[0] == "lp":
            ran.append(entry)
            continue
        _, shape, iterations = entry
        # One LP: its answer stood, after any refused warm attempts.
        assert ran, "a launch that no LP ran"
        assert ran[-1][4] and not any(stood for *_, stood in ran[:-1])
        assert {asker for _, asker, *_ in ran} == {ran[-1][1]}
        assert {lp_shape for _, _, lp_shape, *_ in ran} == {shape}
        assert sum(pivots for _, _, _, pivots, _ in ran) == iterations
        askers.append(ran[-1][1])
        ran = []
    assert not ran, "an LP that launched nothing"
    return askers


def test_standalone_portfolio_charges_each_lp_once(log):
    result = run_portfolio(PROBLEM, OPTIONS, device=Device(V100))
    askers = pair_up(log)
    assert askers.count("_prepare") == 1 and askers[0] == "_prepare"
    assert {"_assemble", "_fix_and_propagate", "dive_fix", "_lns"} <= set(askers)
    assert result.lp_iterations == sum(e[2] for e in log if e[0] == "launch")


def test_heuristic_first_portfolio_charges_each_lp_once(log):
    # The tree's root is handed in: priced by the engine's hook, never
    # launched as a portfolio stream.
    report = solve(
        PROBLEM,
        SolveOptions(
            strategy="cpu_orchestrated", mode="heuristic_first",
            portfolio=OPTIONS, solver=SolverOptions(node_limit=40),
        ),
    )
    askers = pair_up(log)
    assert "_prepare" not in askers
    assert {"_assemble", "_fix_and_propagate", "dive_fix", "_lns"} <= set(askers)
    launched = sum(e[2] for e in log if e[0] == "launch")
    assert report.metrics["portfolio"]["lp_iterations"] == launched
