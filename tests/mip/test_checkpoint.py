"""Checkpoint save/load round-trip and cross-process restart tests."""

import numpy as np
import pytest

from repro.errors import MIPError
from repro.mip.checkpoint import load_snapshot, save_snapshot
from repro.mip.result import MIPStatus
from repro.mip.snapshot import SearchSnapshot, capture_snapshot, resume_from_snapshot
from repro.mip.solver import BranchAndBoundSolver, SolverOptions
from repro.problems.knapsack import generate_knapsack, knapsack_dp_optimal


class TestRoundTrip:
    def test_simple_roundtrip(self, tmp_path):
        snap = SearchSnapshot(
            leaves=[(np.array([0.0, 1.0]), np.array([2.0, 3.0]))],
            incumbent_objective=42.0,
            incumbent_x=np.array([1.0, 2.0]),
        )
        path = str(tmp_path / "ckpt.json")
        save_snapshot(snap, path)
        loaded = load_snapshot(path)
        assert loaded.incumbent_objective == 42.0
        np.testing.assert_array_equal(loaded.incumbent_x, [1.0, 2.0])
        np.testing.assert_array_equal(loaded.leaves[0][0], [0.0, 1.0])
        np.testing.assert_array_equal(loaded.leaves[0][1], [2.0, 3.0])

    def test_infinities_survive(self, tmp_path):
        snap = SearchSnapshot(
            leaves=[(np.array([-np.inf, 0.0]), np.array([np.inf, 1.0]))],
        )
        path = str(tmp_path / "ckpt.json")
        save_snapshot(snap, path)
        loaded = load_snapshot(path)
        assert loaded.incumbent_objective == -np.inf
        assert loaded.incumbent_x is None
        assert loaded.leaves[0][0][0] == -np.inf
        assert loaded.leaves[0][1][0] == np.inf

    def test_version_check(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as handle:
            handle.write('{"version": 99, "leaves": []}')
        with pytest.raises(MIPError):
            load_snapshot(path)

    def test_empty_snapshot(self, tmp_path):
        snap = SearchSnapshot(leaves=[])
        path = str(tmp_path / "empty.json")
        save_snapshot(snap, path)
        assert load_snapshot(path).num_leaves == 0


class TestRestartFromDisk:
    def test_kill_save_load_resume(self, tmp_path):
        """Full UG-style cycle: interrupt, checkpoint to disk, restart."""
        problem = generate_knapsack(16, seed=4)
        expected, _ = knapsack_dp_optimal(problem)

        partial = BranchAndBoundSolver(
            problem, SolverOptions(node_limit=6, keep_tree=True)
        ).solve()
        incumbent = partial.objective if partial.x is not None else -np.inf
        snap = capture_snapshot(
            partial.tree, incumbent_objective=incumbent, incumbent_x=partial.x
        )
        path = str(tmp_path / "search.json")
        save_snapshot(snap, path)

        # "New process": everything reconstructed from the file.
        loaded = load_snapshot(path)
        resumed = resume_from_snapshot(problem, loaded)
        assert resumed.objective == pytest.approx(expected)


class TestIncumbentWithoutPoint:
    """A snapshot may carry only its incumbent's value (distributed ones do)."""

    def test_value_alone_resumes_optimal(self):
        problem = generate_knapsack(16, seed=4)
        expected, _ = knapsack_dp_optimal(problem)
        resumed = resume_from_snapshot(
            problem, SearchSnapshot(leaves=[], incumbent_objective=expected)
        )
        assert resumed.status is MIPStatus.OPTIMAL
        assert resumed.objective == expected
        assert resumed.x is None

    def test_no_incumbent_and_no_leaves_is_infeasible(self):
        problem = generate_knapsack(16, seed=4)
        resumed = resume_from_snapshot(problem, SearchSnapshot(leaves=[]))
        assert resumed.status is MIPStatus.INFEASIBLE
        assert np.isnan(resumed.objective)
