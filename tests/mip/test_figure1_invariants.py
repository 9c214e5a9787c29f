"""Structural invariants of every completed branch-and-bound tree.

Property-based formalization of the paper's Figure 1 semantics: a
completed search leaves a tree in which

- no node is ACTIVE (the paper's explicit completion condition);
- every BRANCHED node has exactly two children and a branch variable;
- every leaf carries a terminal tag (feasible / infeasible / pruned);
- a child's LP bound never exceeds its parent's (bounds tighten);
- bound changes along any path are consistent tightenings.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mip.problem import MIPProblem
from repro.mip.result import MIPStatus
from repro.mip.snapshot import assert_search_complete
from repro.mip.solver import BranchAndBoundSolver, SolverOptions
from repro.mip.tree import NodeTag


def check_tree_invariants(tree, tol=1e-6, check_bound_monotone=True):
    # Bound monotonicity (child LP bound <= parent's) holds exactly only
    # without node-local cuts: a parent's recorded bound is its *with-cut*
    # value, which children (who do not inherit the cuts) may exceed.
    for node in tree.nodes():
        assert node.tag is not NodeTag.ACTIVE
        if node.tag is NodeTag.BRANCHED:
            assert len(node.children) == 2
            assert node.branch_var is not None
        else:
            assert node.children == []
            assert node.tag in (NodeTag.FEASIBLE, NodeTag.INFEASIBLE, NodeTag.PRUNED)
        if node.parent_id is not None:
            parent = tree.node(node.parent_id)
            assert parent.tag is NodeTag.BRANCHED
            if (
                check_bound_monotone
                and np.isfinite(node.lp_bound)
                and np.isfinite(parent.lp_bound)
            ):
                assert node.lp_bound <= parent.lp_bound + tol
        # Bound boxes along the path are consistent.
        lb, ub = tree.node_bounds(node.node_id)
        assert np.all(lb <= ub + 1e-9)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n=st.integers(min_value=3, max_value=7),
    m=st.integers(min_value=2, max_value=4),
)
def test_property_completed_trees_satisfy_figure1(seed, n, m):
    rng = np.random.default_rng(seed)
    problem = MIPProblem(
        c=rng.standard_normal(n) * 3,
        integer=np.ones(n, dtype=bool),
        a_ub=rng.standard_normal((m, n)),
        b_ub=rng.random(m) * 3 + 0.5,
        lb=np.zeros(n),
        ub=np.full(n, 2.0),
    )
    result = BranchAndBoundSolver(
        problem, SolverOptions(keep_tree=True)
    ).solve()
    if result.status in (MIPStatus.OPTIMAL, MIPStatus.INFEASIBLE):
        assert_search_complete(result.tree)
        check_tree_invariants(result.tree)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_property_invariants_hold_with_cuts_and_policies(seed):
    rng = np.random.default_rng(seed)
    n = 5
    problem = MIPProblem(
        c=rng.standard_normal(n) * 3,
        integer=np.ones(n, dtype=bool),
        a_ub=rng.uniform(0.2, 2.0, (3, n)),
        b_ub=rng.random(3) * 4 + 1.0,
        lb=np.zeros(n),
        ub=np.ones(n),
    )
    policy = ["best_first", "depth_first", "hybrid", "gpu_locality"][seed % 4]
    result = BranchAndBoundSolver(
        problem,
        SolverOptions(keep_tree=True, cut_rounds=2, node_selection=policy),
    ).solve()
    if result.status in (MIPStatus.OPTIMAL, MIPStatus.INFEASIBLE):
        check_tree_invariants(result.tree, check_bound_monotone=False)
