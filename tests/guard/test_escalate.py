"""Escalation ladder: rung semantics and climb control.

The ladder is two rungs, the remedies the LP door cannot apply itself:
a rescaled form, then the interior-point engine.  Degeneracy is the
loops' own affair (``tests/lp/test_cold_door.py``).
"""

import numpy as np
import pytest

import repro.guard.escalate as escalate
import repro.mip.solver as solver
from repro.device.spec import V100
from repro.guard.budget import DeadlineBudget, GuardContext, ManualClock, guarding
from repro.guard.escalate import LADDER, escalate_lp, rescale_standard_form
from repro.api import solve
from repro.lp.problem import LinearProgram
from repro.lp.result import LPResult, LPStatus
from repro.lp.simplex import NULL_HOOK, SimplexOptions
from repro.lp.warm import WarmSolveOutcome, solve_warm_or_cold
from repro.mip.solver import BranchAndBoundSolver, SolverOptions
from repro.problems.knapsack import generate_knapsack
from repro.problems.pathological import case_by_name
from repro.strategies.engine import MeteredEngine


def make_sf(seed=0, n=8, m=5):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.1, 1.0, (m, n))
    b = a @ np.ones(n) + rng.uniform(0.5, 1.0, m)
    lp = LinearProgram(
        c=rng.uniform(0.5, 2.0, n),
        a_ub=a,
        b_ub=b,
        lb=np.zeros(n),
        ub=np.full(n, 3.0),
    )
    return lp.to_standard_form()


class TestRungs:
    def test_rescale_preserves_optimum_and_duals(self):
        sf = make_sf(seed=3)
        base = solve_warm_or_cold(sf, None).result
        scaled, scale = rescale_standard_form(sf)
        res = solve_warm_or_cold(scaled, None).result
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(base.objective, rel=1e-9)
        assert np.all(scale > 0)
        # Mapped-back duals satisfy the original complementary pricing.
        np.testing.assert_allclose(res.duals / scale, base.duals, atol=1e-7)


class TestClimb:
    def test_usable_first_result_skips_ladder(self):
        sf = make_sf(seed=1)
        outcome = escalate_lp(sf, NULL_HOOK)
        assert outcome.result.status is LPStatus.OPTIMAL
        assert not outcome.escalated

    def test_iteration_limit_escalates_to_usable(self):
        sf = make_sf(seed=2, n=20, m=12)
        options = SimplexOptions(max_iterations=1)
        first = solve_warm_or_cold(sf, None, cold_options=options).result
        assert first.status is LPStatus.ITERATION_LIMIT
        with guarding(GuardContext()) as ctx:
            outcome = escalate_lp(sf, NULL_HOOK, options=options, first=first)
        assert outcome.escalated
        assert all(step in LADDER for step in outcome.steps)
        assert outcome.result.status is LPStatus.OPTIMAL
        # Every climbed rung left a guard event.
        assert ctx.counters["escalate"] == len(outcome.steps)
        # The escalated objective matches an unconstrained solve.
        reference = solve_warm_or_cold(sf, None).result
        assert outcome.result.objective == pytest.approx(
            reference.objective, rel=1e-5
        )

    def test_expired_budget_stops_the_climb(self):
        sf = make_sf(seed=5)
        clock = ManualClock()
        budget = DeadlineBudget(0.5, clock=clock)
        clock.advance(1.0)
        first = LPResult(status=LPStatus.ITERATION_LIMIT, iterations=10)
        with guarding(GuardContext(budgets=[budget])):
            outcome = escalate_lp(sf, NULL_HOOK, first=first)
        assert outcome.steps == []
        assert outcome.result is first

    def test_ladder_always_returns_a_result(self):
        # Even when every rung is starved to one iteration the ladder
        # must come back with the least-bad result, never raise.
        sf = make_sf(seed=6, n=10, m=6)
        options = SimplexOptions(max_iterations=1)
        first = solve_warm_or_cold(sf, None, cold_options=options).result
        outcome = escalate_lp(sf, NULL_HOOK, options=options, first=first)
        assert outcome.result is not None
        assert isinstance(outcome.result.status, LPStatus)


class TestUnsanitizedPathologies:
    """Unsanitized ``api.solve`` on the corpus cases a cold solve cannot
    finish: the ladder answers them or says ``numerical``, and nothing
    escapes."""

    def test_a_small_row_is_scaled_up(self):
        # Every row carries a ±1 slack: only the structural entries decide.
        sf = case_by_name("dynamic-range").build().to_standard_form()
        _, scale = rescale_standard_form(sf)
        np.testing.assert_allclose(scale, [2e-6, 3e7])

    def test_dynamic_range_is_answered_by_the_rescale_rung(self):
        report = solve(case_by_name("dynamic-range").build())
        assert report.status == "optimal" and report.objective == pytest.approx(4.0)
        assert report.metrics["escalation"] == ["rescale"]

    @pytest.mark.parametrize("name", ["nan-objective", "nan-matrix", "inf-rhs"])
    def test_non_finite_data_reads_numerical(self, name):
        report = solve(case_by_name(name).build())
        assert report.status == "numerical"
        assert report.metrics["escalation"] == list(LADDER)


class TestPricedRungs:
    """The tree climbs the ladder on its engine's meter: an escalated
    node LP charges its rescale rung where its own LPs are charged."""

    def test_an_escalated_node_charges_its_rescale_rung(self, monkeypatch):
        engine = MeteredEngine(V100)
        door = solver.solve_warm_or_cold
        calls = []

        def root_runs_out(sf, warm, hook, **kwargs):
            # The root LP comes back out of pivots; the rest are real.
            calls.append(sf)
            if len(calls) == 1:
                failed = LPResult(status=LPStatus.ITERATION_LIMIT, iterations=3)
                return WarmSolveOutcome(failed)
            return door(sf, warm, hook, **kwargs)

        rung_door = escalate.solve_warm_or_cold
        charged = []

        def rung(sf, warm, hook=NULL_HOOK, **kwargs):
            before = engine.device.kernel_count()
            outcome = rung_door(sf, warm, hook, **kwargs)
            charged.append((hook, engine.device.kernel_count() - before))
            return outcome

        monkeypatch.setattr(solver, "solve_warm_or_cold", root_runs_out)
        monkeypatch.setattr(escalate, "solve_warm_or_cold", rung)
        problem = generate_knapsack(8, seed=1)
        result = BranchAndBoundSolver(problem, SolverOptions(), engine=engine).solve()
        assert result.stats.escalations == 1
        (hook, kernels), = charged
        assert hook is engine.lp_hook
        assert kernels > 0
