"""Satellite: chaos runs are replayable.

The same :class:`FaultPlan` seed against the same workload must produce
the *identical* :meth:`SolveReport.to_dict` — same faults, same
recoveries, same simulated makespan — for every registered strategy.
"""

import pytest

from repro.api import SolveOptions, solve
from repro.faults.plan import FaultPlan
from repro.mip.solver import SolverOptions
from repro.problems.knapsack import generate_knapsack
from repro.strategies import registry


def _run(strategy: str, plan: FaultPlan) -> dict:
    problem = generate_knapsack(7, seed=3)
    report = solve(
        problem,
        SolveOptions(
            strategy=strategy,
            solver=SolverOptions(checkpoint_every=2),
            fault_plan=plan,
        ),
    )
    return report.to_dict()


@pytest.mark.parametrize("strategy", registry.available_strategies())
def test_identical_plan_identical_report(strategy):
    plan = FaultPlan.survivable(seed=17)
    first = _run(strategy, plan)
    second = _run(strategy, plan)
    assert first == second


@pytest.mark.parametrize("strategy", ["gpu_only", "hybrid"])
def test_different_seed_may_differ_but_stays_correct(strategy):
    baseline = _run(strategy, FaultPlan())  # empty plan: no faults
    chaotic = _run(strategy, FaultPlan.survivable(seed=23))
    assert chaotic["status"] == baseline["status"]
    assert chaotic["objective"] == pytest.approx(baseline["objective"])
