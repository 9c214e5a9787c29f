"""Distributed (supervisor–worker) branch-and-bound tests."""

import dataclasses

import numpy as np
import pytest

from repro.cli import main
from repro.faults.injector import injecting
from repro.faults.plan import SITE_RANK, FaultPlan, ScheduledFault
from repro.mip.checkpoint import save_snapshot
from repro.mip.result import MIPStatus
from repro.mip.snapshot import resume_from_snapshot
from repro.problems.knapsack import generate_knapsack, knapsack_dp_optimal
from repro.problems.mps import write_mps
from repro.strategies import distributed
from repro.strategies.distributed import solve_distributed


PROBLEM = generate_knapsack(16, seed=4)
EXPECTED, _ = knapsack_dp_optimal(PROBLEM)


class TestDistributedCorrectness:
    @pytest.mark.parametrize("workers", [0, 1, 2, 4])
    def test_optimum_independent_of_worker_count(self, workers):
        res = solve_distributed(PROBLEM, num_workers=workers)
        assert res.objective == pytest.approx(EXPECTED)

    def test_same_nodes_regardless_of_balancing_mode(self):
        dynamic = solve_distributed(PROBLEM, num_workers=3)
        assert dynamic.objective == pytest.approx(EXPECTED)
        assert dynamic.nodes_evaluated > 0

    def test_deterministic(self):
        a = solve_distributed(PROBLEM, num_workers=3)
        b = solve_distributed(PROBLEM, num_workers=3)
        assert a.objective == b.objective
        assert a.nodes_evaluated == b.nodes_evaluated
        assert a.makespan_seconds == b.makespan_seconds


class TestScalingBehaviour:
    def test_parallel_speedup_over_sequential(self):
        hard = generate_knapsack(22, seed=11, correlation="strong")
        seq = solve_distributed(hard, num_workers=0)
        par = solve_distributed(hard, num_workers=8)
        assert par.objective == pytest.approx(seq.objective)
        assert par.makespan_seconds < seq.makespan_seconds
        speedup = seq.makespan_seconds / par.makespan_seconds
        assert speedup > 1.5

    def test_work_distribution_tracked(self):
        res = solve_distributed(PROBLEM, num_workers=4)
        assert len(res.per_worker) == 4
        assert sum(res.per_worker) <= res.nodes_evaluated  # ramp-up on rank 0

    def test_messages_counted(self):
        res = solve_distributed(PROBLEM, num_workers=2)
        assert res.messages > 0
        assert res.comm_bytes > 0


class TestDistributedSnapshots:
    def test_checkpoints_capture_open_boxes(self):
        res = solve_distributed(PROBLEM, num_workers=3, checkpoint_every=5)
        assert res.snapshots, "expected at least one checkpoint"
        for snapshot in res.snapshots:
            for lb, ub in snapshot.leaves:
                assert lb.shape == ub.shape == (PROBLEM.n,)

    def test_restart_from_distributed_checkpoint(self):
        """§2.1: each distributed snapshot preserves the optimum.

        A snapshot carries its incumbent's value but no point; when no
        leaf beats it, the resume still reports OPTIMAL at that value.
        """
        res = solve_distributed(PROBLEM, num_workers=3, checkpoint_every=5)
        for snapshot in res.snapshots:
            resumed = resume_from_snapshot(PROBLEM, snapshot)
            assert resumed.status is MIPStatus.OPTIMAL
            assert resumed.objective == pytest.approx(EXPECTED)

    def test_lost_rank_restarts_from_latest_checkpoint(self, monkeypatch):
        base = solve_distributed(PROBLEM, num_workers=3, checkpoint_every=5)
        # Each supervisor run's roots, and the snapshots taken before it.
        starts, taken = [], []
        supervise = distributed.run_supervisor_worker

        def spy(roots, evaluate, config, **kwargs):
            starts.append(([task.payload for task in roots], len(taken)))
            sink = config.checkpoint_sink

            def counting(snapshot):
                taken.append(snapshot)
                sink(snapshot)

            config = dataclasses.replace(config, checkpoint_sink=counting)
            return supervise(roots, evaluate, config, **kwargs)

        monkeypatch.setattr(distributed, "run_supervisor_worker", spy)
        plan = FaultPlan(
            seed=0, scheduled=(ScheduledFault(site=SITE_RANK, at=40, rank=2),)
        )
        with injecting(plan) as injector:
            run = solve_distributed(PROBLEM, num_workers=3, checkpoint_every=5)
            assert injector.clean
        assert run.restarts == 1
        assert run.objective == pytest.approx(base.objective)
        # The final run started from the latest pre-crash checkpoint's
        # leaves, not the root.
        (first, _), (final, before) = starts
        assert len(first) == 1 and before > 0
        latest = run.snapshots[before - 1]
        assert len(final) == len(latest.leaves) > 1
        for (lb, ub), (leaf_lb, leaf_ub) in zip(final, latest.leaves):
            assert np.array_equal(lb, leaf_lb) and np.array_equal(ub, leaf_ub)
        # Snapshots taken after the restart carry the pre-crash incumbent.
        for snapshot in run.snapshots:
            resumed = resume_from_snapshot(PROBLEM, snapshot)
            assert resumed.status is MIPStatus.OPTIMAL
            assert resumed.objective == pytest.approx(EXPECTED)

    def test_saved_checkpoint_resumes_through_the_cli(self, tmp_path, capsys):
        res = solve_distributed(PROBLEM, num_workers=3, checkpoint_every=4)
        model = str(tmp_path / "model.mps")
        ckpt = str(tmp_path / "ckpt.json")
        write_mps(PROBLEM, model)
        save_snapshot(res.snapshots[1], ckpt)
        assert main(["solve", model, "--restart-from", ckpt]) == 0
        out = capsys.readouterr().out
        assert "status    : optimal" in out
        assert f"objective : {EXPECTED:.6g}" in out
