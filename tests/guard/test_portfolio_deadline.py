"""SolveOptions.deadline reaches the heuristic portfolio (satellite of
the cluster PR; previously only B&B honored the deadline).

A ticking clock makes the budget expire after a fixed number of guard
polls — mid-portfolio, deterministically — and the portfolio must stop
at the next phase/chunk boundary with a certified anytime result:
whatever incumbents exist, the root-LP dual bound, and a finite gap
when an incumbent was found.
"""

import numpy as np
import pytest

from repro.api import SolveMode, SolveOptions, solve
from repro.guard.budget import DeadlineBudget, GuardContext, ManualClock, guarding
from repro.mip.portfolio import PortfolioOptions, run_portfolio
from repro.problems.knapsack import generate_knapsack


class TickingClock:
    """Advances one step per read: expiry after a fixed poll count."""

    def __init__(self, step: float = 1.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def ticking_guard(seconds: float) -> GuardContext:
    return GuardContext(
        budgets=[DeadlineBudget(seconds, clock=TickingClock(), label="test")]
    )


def expired_guard() -> GuardContext:
    clock = ManualClock()
    budget = DeadlineBudget(0.5, clock=clock, label="test")
    clock.advance(1.0)
    return GuardContext(budgets=[budget])


PROBLEM = generate_knapsack(14, seed=3)


class TestPortfolioDeadline:
    def test_mid_portfolio_expiry_returns_certified_anytime_result(self):
        # Generous enough for the feasibility jump to place incumbents,
        # tight enough to expire before the LNS rounds run dry.
        with guarding(ticking_guard(6.0)):
            result = run_portfolio(
                PROBLEM,
                PortfolioOptions(restarts=8, n_jobs=4, fj_sweeps=40, lns_rounds=6),
            )
        assert result.stats["deadline_stops"] >= 1
        # Anytime contract: a certified incumbent with a true dual bound.
        assert result.best is not None
        assert np.isfinite(result.best.objective)
        assert np.isfinite(result.dual_bound)
        assert result.dual_bound >= result.best.objective - 1e-9
        assert np.isfinite(result.gap)

    def test_already_expired_budget_skips_every_phase(self):
        with guarding(expired_guard()):
            result = run_portfolio(
                PROBLEM, PortfolioOptions(restarts=8, n_jobs=4)
            )
        assert result.stats["deadline_stops"] >= 1
        assert result.stats["fj_sweeps"] == 0
        assert result.stats["fnp_rounds"] == 0
        assert result.stats["lns_rounds"] == 0

    def test_no_guard_means_no_stops(self):
        result = run_portfolio(
            PROBLEM, PortfolioOptions(restarts=4, n_jobs=4, lns_rounds=2)
        )
        assert result.stats["deadline_stops"] == 0

    def test_solve_options_deadline_threads_into_heuristic_only(self):
        # The public path: api.solve installs the guard context from
        # SolveOptions.deadline; heuristic_only runs the portfolio under
        # it.  A generous real-time deadline must not change the answer;
        # the plumbing is what this pins (the ticking-clock tests above
        # pin the expiry behaviour).
        report = solve(
            PROBLEM,
            options=SolveOptions(mode=SolveMode.HEURISTIC_ONLY, deadline=60.0),
        )
        assert report.objective is not None
