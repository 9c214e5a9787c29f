"""Tree bookkeeping, Figure-1 tags, and consistent-snapshot invariants."""

import numpy as np
import pytest

from repro.errors import MIPError
from repro.lp.problem import LinearProgram
from repro.mip.problem import MIPProblem
from repro.mip.result import MIPStatus
from repro.mip.snapshot import (
    SearchSnapshot,
    assert_search_complete,
    capture_snapshot,
    resume_from_snapshot,
)
from repro.mip.solver import BranchAndBoundSolver, SolverOptions
from repro.mip.tree import BBTree, BoundChange, NodeTag
from repro.problems.knapsack import generate_knapsack, knapsack_dp_optimal


def small_lp():
    return LinearProgram(c=[1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[3.0], ub=[2.0, 2.0])


class TestBBTree:
    def test_root(self):
        tree = BBTree(small_lp())
        assert tree.root.node_id == 0
        assert tree.root.depth == 0
        assert tree.size == 1
        assert tree.root.tag is NodeTag.ACTIVE

    def test_add_children_and_bounds(self):
        tree = BBTree(small_lp())
        down = tree.add_child(0, BoundChange(var=0, kind="ub", value=1.0))
        up = tree.add_child(0, BoundChange(var=0, kind="lb", value=2.0))
        assert down.depth == 1 and up.depth == 1
        lb, ub = tree.node_bounds(down.node_id)
        assert ub[0] == 1.0 and lb[0] == 0.0
        lb, ub = tree.node_bounds(up.node_id)
        assert lb[0] == 2.0

    def test_nested_bounds_tighten(self):
        tree = BBTree(small_lp())
        a = tree.add_child(0, BoundChange(var=0, kind="ub", value=1.0))
        b = tree.add_child(a.node_id, BoundChange(var=0, kind="ub", value=2.0))
        _, ub = tree.node_bounds(b.node_id)
        assert ub[0] == 1.0  # cannot loosen the ancestor's bound

    def test_node_problem_reflects_bounds(self):
        tree = BBTree(small_lp())
        child = tree.add_child(0, BoundChange(var=1, kind="lb", value=1.0))
        lp = tree.node_problem(child.node_id)
        assert lp.lb[1] == 1.0

    def test_tree_distance(self):
        tree = BBTree(small_lp())
        a = tree.add_child(0, BoundChange(var=0, kind="ub", value=1.0))
        b = tree.add_child(0, BoundChange(var=0, kind="lb", value=2.0))
        c = tree.add_child(a.node_id, BoundChange(var=1, kind="ub", value=0.0))
        assert tree.tree_distance(a.node_id, a.node_id) == 0
        assert tree.tree_distance(0, a.node_id) == 1
        assert tree.tree_distance(a.node_id, b.node_id) == 2
        assert tree.tree_distance(c.node_id, b.node_id) == 3

    def test_unknown_node_raises(self):
        tree = BBTree(small_lp())
        with pytest.raises(MIPError):
            tree.node(99)

    def test_render_shows_tags(self):
        tree = BBTree(small_lp())
        child = tree.add_child(0, BoundChange(var=0, kind="ub", value=1.0))
        child.tag = NodeTag.FEASIBLE
        text = tree.render()
        assert "n0" in text and "feasible" in text and "x0 ≤ 1" in text

    def test_assert_search_complete_raises_on_active(self):
        tree = BBTree(small_lp())
        with pytest.raises(MIPError, match="still active"):
            assert_search_complete(tree)


class TestSnapshots:
    def _partial_search_tree(self, node_limit):
        p = generate_knapsack(16, seed=4)
        solver = BranchAndBoundSolver(
            p, SolverOptions(node_limit=node_limit, keep_tree=True)
        )
        res = solver.solve()
        return p, res

    def test_trivial_snapshot_is_root(self):
        p = generate_knapsack(8, seed=0)
        from repro.mip.tree import BBTree

        tree = BBTree(p.relaxation())
        snap = capture_snapshot(tree)
        assert snap.num_leaves == 1  # "the root node alone" (paper §2.1)

    @pytest.mark.parametrize("node_limit", [1, 3, 7, 15])
    def test_restart_preserves_optimum(self, node_limit):
        """Paper §2.1: any consistent snapshot preserves the optimum."""
        p, partial = self._partial_search_tree(node_limit)
        expected, _ = knapsack_dp_optimal(p)
        incumbent = partial.objective if partial.x is not None else -np.inf
        snap = capture_snapshot(
            partial.tree, incumbent_objective=incumbent, incumbent_x=partial.x
        )
        resumed = resume_from_snapshot(p, snap)
        assert resumed.status is MIPStatus.OPTIMAL
        assert resumed.objective == pytest.approx(expected)

    def test_completed_search_snapshot_empty(self):
        p, res = self._partial_search_tree(node_limit=10_000)
        assert res.status is MIPStatus.OPTIMAL
        snap = capture_snapshot(res.tree)
        assert snap.num_leaves == 0  # all leaves terminal

    def test_snapshot_array_roundtrip(self):
        p, partial = self._partial_search_tree(node_limit=5)
        snap = capture_snapshot(partial.tree, incumbent_objective=1.0)
        lbs, ubs = snap.to_arrays()
        rebuilt = SearchSnapshot(leaves=list(zip(lbs, ubs)), incumbent_objective=1.0)
        assert rebuilt.num_leaves == snap.num_leaves
        for (a_lb, a_ub), (b_lb, b_ub) in zip(snap.leaves, rebuilt.leaves):
            np.testing.assert_array_equal(a_lb, b_lb)
            np.testing.assert_array_equal(a_ub, b_ub)
