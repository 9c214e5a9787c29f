"""Deterministic deadline hits, per engine, under injected clocks.

Each engine polls the active guard context inside its hot loop; with an
already-expired :class:`ManualClock` budget the very first poll must
surrender with a structured ``TIME_LIMIT`` — no exception, no hang.
The MIP solvers additionally get a *ticking* clock (each poll advances
time) so the budget expires mid-tree and the anytime contract — finite
certified dual bound at the stop — can be asserted deterministically.
"""

import numpy as np
import pytest

from repro.guard.budget import DeadlineBudget, GuardContext, ManualClock, guarding
from repro.lp.dual_simplex import WarmStartState, dual_simplex_resolve
from repro.lp.interior_point import interior_point_solve
from repro.lp.pdhg import solve_lp_pdhg
from repro.lp.pdhg_batch import solve_lp_pdhg_batch
from repro.lp.problem import LinearProgram
from repro.lp.result import LPStatus
from repro.lp.warm import solve_warm_or_cold
from repro.mip.batch_solver import BatchedNodeSolver
from repro.mip.result import MIPStatus
from repro.mip.solver import BranchAndBoundSolver, ExecutionEngine, SolverOptions
from repro.problems.knapsack import generate_knapsack, knapsack_dp_optimal


class TickingClock:
    """A clock that advances one step per read — deterministic expiry
    after a fixed number of guard polls, independent of host speed."""

    def __init__(self, step: float = 1.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def expired_guard():
    clock = ManualClock()
    budget = DeadlineBudget(0.5, clock=clock, label="test")
    clock.advance(1.0)
    return GuardContext(budgets=[budget])


def make_lp(seed=0, n=10, m=6):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.1, 1.0, (m, n))
    return LinearProgram(
        c=rng.uniform(0.5, 2.0, n),
        a_ub=a,
        b_ub=a @ np.ones(n) + 0.5,
        lb=np.zeros(n),
        ub=np.full(n, 3.0),
    )


class TestLPEngines:
    def test_simplex(self):
        sf = make_lp().to_standard_form()
        with guarding(expired_guard()):
            res = solve_warm_or_cold(sf, None).result
        assert res.status is LPStatus.TIME_LIMIT

    def test_dual_simplex(self):
        sf = make_lp(seed=1).to_standard_form()
        base = solve_warm_or_cold(sf, None).result
        assert base.status is LPStatus.OPTIMAL
        with guarding(expired_guard()):
            res = dual_simplex_resolve(sf, WarmStartState(base.basis, (sf.m, sf.n)))
        assert res.status is LPStatus.TIME_LIMIT

    def test_interior_point(self):
        sf = make_lp(seed=2).to_standard_form()
        with guarding(expired_guard()):
            res = interior_point_solve(sf)
        assert res.status is LPStatus.TIME_LIMIT

    def test_pdhg(self):
        # The one PDHG loop polls before each block of sweeps, so an
        # expired budget costs no sweep from any entry point.
        with guarding(expired_guard()):
            res = solve_lp_pdhg(make_lp(seed=3))
        assert res.status is LPStatus.TIME_LIMIT
        assert res.iterations == 0

    def test_pdhg_standard_form(self):
        # A first-order node round: the member stops before a sweep, and
        # its exact re-solve on the standard form before a pivot.
        lp = make_lp(seed=3)
        engine = ExecutionEngine(node_lp="pdhg")
        with guarding(expired_guard()):
            (solved,) = engine.solve_round([(lp, lp.to_standard_form(), None)])
        assert solved.result.status is LPStatus.TIME_LIMIT
        assert solved.result.iterations == 0
        assert engine.pdhg_stats["fallbacks"] == 1
        assert engine.pdhg_stats["iterations"] == 0

    def test_pdhg_batch(self):
        lps = [make_lp(seed=s) for s in (4, 5, 6)]
        with guarding(expired_guard()):
            res = solve_lp_pdhg_batch(lps)
        assert all(s is LPStatus.TIME_LIMIT for s in res.statuses)
        assert res.iterations == 0

    def test_lockstep_simplex_batch(self):
        from repro.lp.batch_simplex import solve_lp_batch

        rng = np.random.default_rng(8)
        lps = [
            LinearProgram(
                c=rng.uniform(0.5, 2.0, 6),
                a_ub=(a := rng.uniform(0.1, 1.0, (4, 6))),
                b_ub=a @ np.ones(6) + 0.5,
            )
            for _ in range(3)
        ]
        with guarding(expired_guard()):
            res = solve_lp_batch(lps)
        assert all(s is LPStatus.TIME_LIMIT for s in res.statuses)

    def test_unguarded_solves_still_finish(self):
        # The guard hooks must be inert without an active context.
        res = solve_warm_or_cold(make_lp(seed=7).to_standard_form(), None).result
        assert res.status is LPStatus.OPTIMAL


class TestMIPAnytime:
    def knapsack(self):
        # Strongly correlated knapsacks force a deep tree (thousands of
        # nodes when solved exactly) so a 60-poll budget stops midway.
        return generate_knapsack(20, seed=11, correlation="strong")

    def midway_guard(self, polls: int):
        # One tick per poll: the budget expires after `polls` guard
        # checks, i.e. after some-but-not-all tree work is done.
        return GuardContext(
            budgets=[DeadlineBudget(float(polls), clock=TickingClock(), label="tick")]
        )

    def test_serial_bnb_anytime_stop(self):
        problem = self.knapsack()
        with guarding(self.midway_guard(60)) as ctx:
            res = BranchAndBoundSolver(problem, SolverOptions()).solve()
        assert res.status is MIPStatus.TIME_LIMIT
        assert res.status.anytime
        assert np.isfinite(res.best_bound)
        assert ctx.counters["deadline"] == 1
        # The certified bound must dominate any incumbent.
        if res.x is not None:
            assert problem.is_feasible(res.x)
            assert res.best_bound >= res.objective - 1e-9

    def test_serial_bnb_bound_is_sound(self):
        problem = self.knapsack()
        optimum, _ = knapsack_dp_optimal(problem)  # exact DP oracle
        with guarding(self.midway_guard(60)):
            partial = BranchAndBoundSolver(problem, SolverOptions()).solve()
        # incumbent <= true optimum <= anytime dual bound
        if np.isfinite(partial.objective):
            assert partial.objective <= optimum + 1e-9
        assert partial.best_bound >= optimum - 1e-9

    def test_batched_bnb_anytime_stop(self):
        problem = self.knapsack()
        with guarding(self.midway_guard(60)):
            res = BatchedNodeSolver(problem, batch_size=4).solve()
        assert res.status is MIPStatus.TIME_LIMIT
        assert np.isfinite(res.best_bound)

    def test_batched_bound_is_sound(self):
        problem = self.knapsack()
        optimum, _ = knapsack_dp_optimal(problem)
        with guarding(self.midway_guard(60)):
            partial = BatchedNodeSolver(problem, batch_size=4).solve()
        if np.isfinite(partial.objective):
            assert partial.objective <= optimum + 1e-9
        assert partial.best_bound >= optimum - 1e-9

    def test_deterministic_across_runs(self):
        problem = self.knapsack()

        def run():
            with guarding(self.midway_guard(60)):
                res = BranchAndBoundSolver(problem, SolverOptions()).solve()
            return (
                res.status,
                res.objective,
                res.best_bound,
                res.stats.nodes_processed,
            )

        assert run() == run()
