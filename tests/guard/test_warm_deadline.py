"""Guard × warm interaction: deadlines expiring mid-warm-re-solve.

Warm starts change how node LPs are solved, not the anytime contract: a
budget that expires inside a warm dual-simplex re-solve must surface as
a structured ``TIME_LIMIT`` (never an exception), and a B&B run stopped
mid-tree with warm starts on must still leave a finite certified dual
bound that dominates the true optimum — exactly as the cold path does.
"""

import numpy as np

from repro.guard.budget import DeadlineBudget, GuardContext, ManualClock, guarding
from repro.lp.result import LPStatus
from repro.lp.warm import WarmStartState, solve_lp, warm_resolve
from repro.mip.result import MIPStatus
from repro.mip.solver import BranchAndBoundSolver, SolverOptions
from repro.problems.knapsack import generate_knapsack, knapsack_dp_optimal


class TickingClock:
    """One step per read: deterministic expiry after a fixed number of
    guard polls, independent of host speed."""

    def __init__(self, step: float = 1.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def midway_guard(polls: int) -> GuardContext:
    return GuardContext(
        budgets=[DeadlineBudget(float(polls), clock=TickingClock(), label="tick")]
    )


def expired_guard() -> GuardContext:
    clock = ManualClock()
    budget = DeadlineBudget(0.5, clock=clock, label="warm-test")
    clock.advance(1.0)
    return GuardContext(budgets=[budget])


def knapsack():
    # Strongly correlated: deep tree, so a 60-poll budget stops midway.
    return generate_knapsack(20, seed=11, correlation="strong")


class TestWarmResolveDeadline:
    def test_expired_budget_surfaces_as_time_limit(self):
        # The budget dies *inside* the warm re-solve: the outcome passes
        # the TIME_LIMIT through for the caller's anytime handling — it
        # is not an audit failure and not a warm-state error.
        lp = generate_knapsack(14, seed=2).relaxation()
        cold = solve_lp(lp)
        assert cold.status is LPStatus.OPTIMAL
        sf = lp.to_standard_form()
        state = WarmStartState.from_result(sf, cold)
        with guarding(expired_guard()):
            outcome = warm_resolve(sf, state)
        assert outcome is not None
        assert outcome.result.status is LPStatus.TIME_LIMIT
        assert not outcome.audit_failed

    def test_unguarded_warm_resolve_still_finishes(self):
        lp = generate_knapsack(14, seed=2).relaxation()
        cold = solve_lp(lp)
        sf = lp.to_standard_form()
        outcome = warm_resolve(sf, WarmStartState.from_result(sf, cold))
        assert outcome is not None
        assert outcome.result.status is LPStatus.OPTIMAL


class TestWarmBnbAnytime:
    def test_midtree_stop_leaves_certified_bound(self):
        problem = knapsack()
        with guarding(midway_guard(60)) as ctx:
            res = BranchAndBoundSolver(
                problem, SolverOptions(warm_start=True)
            ).solve()
        assert res.status is MIPStatus.TIME_LIMIT
        assert res.status.anytime
        assert np.isfinite(res.best_bound)
        assert ctx.counters["deadline"] == 1
        if res.x is not None:
            assert problem.is_feasible(res.x)
            assert res.best_bound >= res.objective - 1e-9

    def test_bound_is_sound_against_dp_oracle(self):
        problem = knapsack()
        optimum, _ = knapsack_dp_optimal(problem)
        with guarding(midway_guard(60)):
            partial = BranchAndBoundSolver(
                problem, SolverOptions(warm_start=True)
            ).solve()
        # incumbent <= true optimum <= anytime dual bound
        if np.isfinite(partial.objective):
            assert partial.objective <= optimum + 1e-9
        assert partial.best_bound >= optimum - 1e-9

    def test_warm_path_was_exercised_before_expiry(self):
        # The stop must interrupt genuinely warm work, not a cold run
        # that never reached the reuse path.
        problem = knapsack()
        with guarding(midway_guard(120)):
            partial = BranchAndBoundSolver(
                problem, SolverOptions(warm_start=True)
            ).solve()
        assert partial.status is MIPStatus.TIME_LIMIT
        assert partial.stats.warm_starts > 0

    def test_deterministic_across_runs(self):
        problem = knapsack()

        def run():
            with guarding(midway_guard(60)):
                res = BranchAndBoundSolver(
                    problem, SolverOptions(warm_start=True)
                ).solve()
            return (
                res.status,
                res.objective,
                res.best_bound,
                res.stats.nodes_processed,
                res.stats.warm_starts,
            )

        assert run() == run()

    def test_warm_and_cold_stops_are_both_sound(self):
        problem = knapsack()
        optimum, _ = knapsack_dp_optimal(problem)
        bounds = []
        for warm_start in (True, False):
            with guarding(midway_guard(60)):
                res = BranchAndBoundSolver(
                    problem, SolverOptions(warm_start=warm_start)
                ).solve()
            assert res.status is MIPStatus.TIME_LIMIT
            bounds.append(res.best_bound)
        for bound in bounds:
            assert bound >= optimum - 1e-9
