"""Branching rules and node-selection policies."""

import numpy as np
import pytest

from repro.errors import MIPError, ReproError
from repro.lp.problem import LinearProgram
from repro.mip.branching import (
    MostFractionalBranching,
    PseudocostBranching,
    StrongBranching,
    make_branching,
)
from repro.mip.node_selection import make_selector
from repro.mip.tree import BBTree, BoundChange


class TestMostFractional:
    def test_picks_nearest_half(self):
        rule = MostFractionalBranching()
        x = np.array([0.9, 0.5, 0.2])
        assert rule.select(np.array([0, 1, 2]), x, 10.0) == 1

    def test_empty_raises(self):
        with pytest.raises(MIPError):
            MostFractionalBranching().select(np.array([], dtype=int), np.zeros(1), 0.0)


class TestPseudocost:
    def test_unseen_vars_fall_back_to_global_average(self):
        rule = PseudocostBranching()
        x = np.array([0.5, 0.5])
        # Symmetric: returns some valid candidate.
        assert rule.select(np.array([0, 1]), x, 5.0) in (0, 1)

    def test_learned_costs_steer_selection(self):
        rule = PseudocostBranching()
        # Var 0 historically degrades the bound a lot in both directions.
        for _ in range(3):
            rule.record(0, "up", 0.5, 10.0)
            rule.record(0, "down", 0.5, 10.0)
            rule.record(1, "up", 0.5, 0.01)
            rule.record(1, "down", 0.5, 0.01)
        x = np.array([0.5, 0.5])
        assert rule.select(np.array([0, 1]), x, 5.0) == 0

    def test_bad_direction_raises(self):
        with pytest.raises(MIPError):
            PseudocostBranching().record(0, "sideways", 0.5, 1.0)


class TestStrong:
    def test_uses_probe_results(self):
        # Probe says branching on var 1 degrades both children most.
        def probe(var, lb, ub):
            return 10.0 - (5.0 if var == 1 else 0.5)

        rule = StrongBranching()
        x = np.array([0.5, 0.49])
        chosen = rule.select(np.array([0, 1]), x, 10.0, probe=probe)
        assert chosen == 1

    def test_without_probe_degrades_gracefully(self):
        rule = StrongBranching()
        x = np.array([0.5, 0.1])
        assert rule.select(np.array([0, 1]), x, 3.0) == 0


class TestFactories:
    def test_unknown_branching(self):
        with pytest.raises(ReproError):
            make_branching("nope")

    def test_unknown_selector(self):
        tree = BBTree(LinearProgram(c=[1.0], ub=[1.0]))
        with pytest.raises(ReproError):
            make_selector("nope", tree)


def build_tree():
    lp = LinearProgram(c=[1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[3.0], ub=[2.0, 2.0])
    return BBTree(lp)


class TestSelectors:
    def test_best_first_order(self):
        tree = build_tree()
        a = tree.add_child(0, BoundChange(0, "ub", 1.0))
        b = tree.add_child(0, BoundChange(0, "lb", 2.0))
        sel = make_selector("best_first", tree)
        sel.push(a.node_id, 5.0)
        sel.push(b.node_id, 9.0)
        assert sel.pop() == b.node_id  # higher bound first
        assert sel.pop() == a.node_id

    def test_depth_first_lifo(self):
        tree = build_tree()
        a = tree.add_child(0, BoundChange(0, "ub", 1.0))
        b = tree.add_child(0, BoundChange(0, "lb", 2.0))
        sel = make_selector("depth_first", tree)
        sel.push(a.node_id, 5.0)
        sel.push(b.node_id, 1.0)
        assert sel.pop() == b.node_id  # last pushed first

    def test_hybrid_prefers_depth_on_ties(self):
        tree = build_tree()
        shallow = tree.add_child(0, BoundChange(0, "ub", 1.0))
        deep = tree.add_child(shallow.node_id, BoundChange(1, "ub", 1.0))
        sel = make_selector("hybrid", tree)
        sel.push(shallow.node_id, 5.0)
        sel.push(deep.node_id, 5.0)
        assert sel.pop() == deep.node_id

    def test_gpu_locality_prefers_children(self):
        tree = build_tree()
        a = tree.add_child(0, BoundChange(0, "ub", 1.0))
        b = tree.add_child(0, BoundChange(0, "lb", 2.0))
        sel = make_selector("gpu_locality", tree)
        sel.push(0, 10.0)
        assert sel.pop() == 0
        # Children of node 0 beat the (better-bound) sibling subtree.
        a_child = a  # children of node 0 are a and b themselves
        sel.push(b.node_id, 99.0)
        sel.push(a_child.node_id, 1.0)
        first = sel.pop()
        assert first in (a.node_id, b.node_id)  # a child of the last node

    def test_empty_pop_raises(self):
        tree = build_tree()
        for name in ("best_first", "depth_first", "hybrid", "gpu_locality"):
            sel = make_selector(name, tree)
            with pytest.raises(MIPError):
                sel.pop()

    def test_len_and_bool(self):
        tree = build_tree()
        sel = make_selector("best_first", tree)
        assert not sel
        sel.push(0, 1.0)
        assert len(sel) == 1 and sel
