"""Tests for the UG-style supervisor–worker engine."""

import pytest

from repro.comm.supervisor import (
    SupervisorConfig,
    Task,
    TaskResult,
    run_supervisor_worker,
)
from repro.errors import CommError


def binary_tree_evaluate(depth_limit, cost=1e-3, value_at_leaf=1.0):
    """Evaluate fn producing a complete binary tree of given depth.

    Payloads are (depth, label); leaves report an incumbent equal to
    ``value_at_leaf * label`` so the max label wins.
    """

    def evaluate(payload, incumbent):
        depth, label = payload
        if depth >= depth_limit:
            return TaskResult(compute_seconds=cost, incumbent=value_at_leaf * label)
        children = (
            Task(payload=(depth + 1, label * 2), priority=-label),
            Task(payload=(depth + 1, label * 2 + 1), priority=-label),
        )
        return TaskResult(children=children, compute_seconds=cost)

    return evaluate


ROOT = [Task(payload=(0, 1), priority=0.0)]


def total_nodes(depth):
    return 2 ** (depth + 1) - 1


class TestSequentialBaseline:
    def test_evaluates_whole_tree(self):
        res = run_supervisor_worker(
            ROOT, binary_tree_evaluate(4), SupervisorConfig(num_workers=0)
        )
        assert res.evaluations == total_nodes(4)

    def test_incumbent_is_max_leaf(self):
        res = run_supervisor_worker(
            ROOT, binary_tree_evaluate(3), SupervisorConfig(num_workers=0)
        )
        assert res.incumbent == pytest.approx(15.0)  # max label at depth 3

    def test_makespan_counts_all_work(self):
        res = run_supervisor_worker(
            ROOT,
            binary_tree_evaluate(3, cost=0.5),
            SupervisorConfig(num_workers=0),
        )
        assert res.makespan == pytest.approx(0.5 * total_nodes(3))

    def test_max_evaluations_cap(self):
        res = run_supervisor_worker(
            ROOT,
            binary_tree_evaluate(20),
            SupervisorConfig(num_workers=0, max_evaluations=10),
        )
        assert res.evaluations == 10


class TestDynamicMode:
    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    def test_all_nodes_evaluated(self, workers):
        res = run_supervisor_worker(
            ROOT, binary_tree_evaluate(5), SupervisorConfig(num_workers=workers)
        )
        assert res.evaluations == total_nodes(5)
        assert res.incumbent == pytest.approx(63.0)

    def test_parallel_speedup(self):
        seq = run_supervisor_worker(
            ROOT, binary_tree_evaluate(7, cost=1e-2), SupervisorConfig(num_workers=0)
        )
        par = run_supervisor_worker(
            ROOT, binary_tree_evaluate(7, cost=1e-2), SupervisorConfig(num_workers=8)
        )
        assert par.makespan < seq.makespan / 3

    def test_work_spread_across_workers(self):
        res = run_supervisor_worker(
            ROOT, binary_tree_evaluate(7), SupervisorConfig(num_workers=4)
        )
        assert len(res.per_worker) == 4
        assert all(count > 0 for count in res.per_worker)
        # Ramp-up keeps the per-worker shares reasonably even.
        assert max(res.per_worker) < 3 * min(res.per_worker)

    def test_ramp_up_off_still_correct(self):
        res = run_supervisor_worker(
            ROOT,
            binary_tree_evaluate(5),
            SupervisorConfig(num_workers=4, ramp_up=False),
        )
        assert res.evaluations == total_nodes(5)

    def test_negative_workers_rejected(self):
        with pytest.raises(CommError):
            run_supervisor_worker(
                ROOT, binary_tree_evaluate(2), SupervisorConfig(num_workers=-1)
            )

    def test_determinism(self):
        cfg = SupervisorConfig(num_workers=3)
        a = run_supervisor_worker(ROOT, binary_tree_evaluate(5), cfg)
        b = run_supervisor_worker(ROOT, binary_tree_evaluate(5), cfg)
        assert a.evaluations == b.evaluations
        assert a.makespan == b.makespan
        assert a.per_worker == b.per_worker


def run_with_sink(roots, evaluate, **config):
    """Run the engine; return its result and the snapshots its sink saw."""
    snapshots = []
    res = run_supervisor_worker(
        roots, evaluate, SupervisorConfig(checkpoint_sink=snapshots.append, **config)
    )
    return res, snapshots


class TestSnapshots:
    def test_snapshots_recorded(self):
        _, snapshots = run_with_sink(
            ROOT, binary_tree_evaluate(5), num_workers=2, checkpoint_every=10
        )
        assert len(snapshots) >= 3
        for snap in snapshots:
            assert isinstance(snap.tasks, list)

    def test_snapshot_restart_preserves_optimum(self):
        """Restarting the search from any snapshot finds the same best."""
        evaluate = binary_tree_evaluate(6)
        res, snapshots = run_with_sink(
            ROOT, evaluate, num_workers=3, checkpoint_every=7
        )
        assert snapshots, "need at least one snapshot"
        for snap in snapshots[:5]:
            restart_roots = [Task(payload=p) for p in snap.tasks]
            incumbent = snap.incumbent
            restarted = run_supervisor_worker(
                restart_roots,
                evaluate,
                SupervisorConfig(num_workers=2),
            )
            best = restarted.incumbent
            if incumbent is not None and (best is None or incumbent > best):
                best = incumbent
            assert best == pytest.approx(res.incumbent)

    def test_sequential_snapshots(self):
        _, snapshots = run_with_sink(
            ROOT, binary_tree_evaluate(5), num_workers=0, checkpoint_every=9
        )
        assert len(snapshots) == total_nodes(5) // 9


class TestStaticMode:
    def test_static_evaluates_everything(self):
        # Two root tasks so both workers get work.
        roots = [Task(payload=(1, 2)), Task(payload=(1, 3))]
        res = run_supervisor_worker(
            roots,
            binary_tree_evaluate(5),
            SupervisorConfig(num_workers=2, dynamic_load_balancing=False),
        )
        assert res.evaluations == 2 * (2 ** 5 - 1)

    def test_static_imbalance_vs_dynamic(self):
        """A skewed tree leaves static partitioning badly imbalanced."""

        def skewed_evaluate(payload, incumbent):
            depth, label = payload
            # Subtree 0 is deep, subtree 1 is a single node.
            limit = 7 if label % 2 == 0 else 0
            if depth >= limit:
                return TaskResult(compute_seconds=1e-3, incumbent=float(label))
            return TaskResult(
                children=(
                    Task(payload=(depth + 1, label * 2)),
                    Task(payload=(depth + 1, label * 2)),
                ),
                compute_seconds=1e-3,
            )

        roots = [Task(payload=(0, 0)), Task(payload=(0, 1))]
        static = run_supervisor_worker(
            roots,
            skewed_evaluate,
            SupervisorConfig(num_workers=2, dynamic_load_balancing=False),
        )
        dynamic = run_supervisor_worker(
            roots,
            skewed_evaluate,
            SupervisorConfig(num_workers=2),
        )
        assert static.evaluations == dynamic.evaluations
        # Static: one worker does ~everything; dynamic splits the work.
        assert max(static.per_worker) > 50 * max(1, min(static.per_worker))
        assert max(dynamic.per_worker) < 3 * max(1, min(dynamic.per_worker))
        assert dynamic.makespan < static.makespan
