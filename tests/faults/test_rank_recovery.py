"""Rank-loss recovery: the distributed solve survives dropped ranks."""

import numpy as np
import pytest

from repro.comm.supervisor import SupervisorConfig, Task, run_supervisor_worker
from repro.errors import RankLostError
from repro.faults.injector import injecting
from repro.faults.plan import SITE_RANK, FaultPlan, ScheduledFault
from repro.problems.knapsack import generate_knapsack
from repro.strategies.distributed import _make_evaluate, solve_distributed


def _drop(rank: int, at: int) -> FaultPlan:
    return FaultPlan(
        seed=0, scheduled=(ScheduledFault(site=SITE_RANK, at=at, rank=rank),)
    )


def _solve(problem, num_workers):
    return solve_distributed(problem, num_workers=num_workers, checkpoint_every=4)


class TestRankRecovery:
    def test_baseline_unchanged_without_faults(self):
        problem = generate_knapsack(7, seed=11)
        run = _solve(problem, num_workers=2)
        assert run.restarts == 0
        assert np.isfinite(run.objective)

    @pytest.mark.parametrize("rank,at", [(1, 1), (2, 2), (1, 4)])
    def test_incumbent_matches_after_drop(self, rank, at):
        problem = generate_knapsack(7, seed=11)
        base = _solve(problem, num_workers=2)
        with injecting(_drop(rank, at)) as injector:
            run = _solve(problem, num_workers=2)
            assert injector.clean
            assert injector.counts()["injected"] == 1
        assert run.restarts == 1
        assert run.objective == pytest.approx(base.objective, abs=1e-9)

    def test_multiple_drops_across_ranks(self):
        problem = generate_knapsack(7, seed=11)
        base = _solve(problem, num_workers=3)
        plan = FaultPlan(
            seed=0,
            scheduled=(
                ScheduledFault(site=SITE_RANK, at=1, rank=1),
                ScheduledFault(site=SITE_RANK, at=2, rank=3),
            ),
        )
        with injecting(plan) as injector:
            run = _solve(problem, num_workers=3)
            assert injector.clean
        assert run.restarts == 2
        assert run.objective == pytest.approx(base.objective, abs=1e-9)

    def test_unhandled_drop_raises(self):
        """Below the distributed search, the engine itself does not recover."""
        problem = generate_knapsack(7, seed=11)
        root = Task(payload=(problem.lb.copy(), problem.ub.copy()))
        with injecting(_drop(1, 1)):
            with pytest.raises(RankLostError):
                run_supervisor_worker(
                    [root], _make_evaluate(problem), SupervisorConfig(num_workers=2)
                )
