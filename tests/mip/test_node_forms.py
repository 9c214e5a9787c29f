"""A node is the root form plus its bounds.

``StandardFormLP.rebounded`` shares the root's ``a``, ``c`` and index
maps and recomputes ``shift``, ``b``, ``offset``, ``upper`` — every
float the one ``to_standard_form()`` builds from scratch; a variable free
below changes the column layout with its bounds, so then the full
builder runs.  ``BBTree.node_problem`` shares the root's arrays too.
"""

import dataclasses

import numpy as np
import pytest

from repro.errors import ProblemFormatError
from repro.lp.problem import LinearProgram
from repro.mip.solver import BranchAndBoundSolver, SolverOptions
from repro.mip.tree import BBTree, BoundChange
from repro.problems.knapsack import generate_knapsack
from repro.problems.random_mip import generate_random_mip

FIELDS = [f.name for f in dataclasses.fields(generate_knapsack(4, seed=0).relaxation().to_standard_form())]


def same_bits(a, b):
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b and np.signbit(a) == np.signbit(b)


def random_walk(lp, steps, seed):
    """``lp`` under a run of bound tightenings, negative zeros and fixed
    variables included."""
    rng = np.random.default_rng(seed)
    lb, ub = lp.lb.copy(), lp.ub.copy()
    for _ in range(steps):
        j = int(rng.integers(lp.n))
        if rng.random() < 0.5:
            lb[j] = min(ub[j], lb[j] + float(rng.integers(0, 3)) - (0.0 if rng.random() < 0.8 else 0.5))
        elif np.isfinite(ub[j]):
            ub[j] = max(lb[j], ub[j] - float(rng.integers(0, 3)))
        else:
            ub[j] = lb[j] + float(rng.integers(0, 4))
        yield lp.with_bound_vectors(lb.copy(), ub.copy())


@pytest.mark.parametrize(
    "problem",
    [
        generate_knapsack(14, seed=2, correlation="strong"),
        generate_random_mip(12, 6, seed=2, integer_fraction=1.0),
        generate_random_mip(9, 5, seed=7, integer_fraction=0.5, bound=4.0),
    ],
    ids=["knap14", "rand-12x6", "rand-9x5-mixed"],
)
def test_rebounded_is_to_standard_form_bit_for_bit(problem):
    lp = problem.relaxation()
    root = lp.to_standard_form()
    for seed in range(5):
        for node_lp in random_walk(lp, 12, seed):
            node, built = root.rebounded(node_lp), node_lp.to_standard_form()
            for name in FIELDS:
                assert same_bits(getattr(node, name), getattr(built, name)), name
            assert node.a is root.a and node.c is root.c and node.pos_col is root.pos_col
            assert node.b is not root.b and node.upper is not root.upper


def test_a_variable_free_below_takes_the_full_builder():
    lp = LinearProgram(
        c=[1.0, -1.0, 2.0], a_ub=[[1.0, 1.0, 1.0]], b_ub=[4.0],
        lb=[0.0, -np.inf, 1.0], ub=[2.0, 3.0, 5.0],
    )
    root = lp.to_standard_form()
    assert root.neg_col.max() >= 0 and root.m == 2  # the free variable keeps its bound row
    node_lp = lp.with_bound_vectors(np.array([0.0, -np.inf, 2.0]), np.array([1.0, 2.0, 5.0]))
    node, built = root.rebounded(node_lp), node_lp.to_standard_form()
    assert node.a is not root.a
    for name in FIELDS:
        assert same_bits(getattr(node, name), getattr(built, name)), name


def test_node_problems_share_the_root_arrays_and_check_their_bounds():
    problem = generate_knapsack(8, seed=1)
    root = problem.relaxation()
    tree = BBTree(root)
    child = tree.add_child(0, BoundChange(var=3, kind="ub", value=0.0))
    grandchild = tree.add_child(child.node_id, BoundChange(var=5, kind="lb", value=1.0))
    node_lp = tree.node_problem(grandchild.node_id)
    assert isinstance(node_lp, LinearProgram)
    assert node_lp.c is root.c and node_lp.a_ub is root.a_ub and node_lp.b_ub is root.b_ub
    assert node_lp.ub[3] == 0.0 and node_lp.lb[5] == 1.0 and root.ub[3] == 1.0
    assert node_lp.n == root.n and node_lp.num_ub_rows == root.num_ub_rows
    with pytest.raises(ProblemFormatError):
        root.with_bound_vectors(np.ones(root.n), np.zeros(root.n))


def test_the_search_never_rebuilds_the_matrix(monkeypatch):
    """One ``to_standard_form()`` per search — the root's."""
    built = []
    original = LinearProgram.to_standard_form
    monkeypatch.setattr(
        LinearProgram, "to_standard_form", lambda self: built.append(1) or original(self)
    )
    problem = generate_knapsack(14, seed=2, correlation="strong")
    result = BranchAndBoundSolver(problem, SolverOptions(branching="strong")).solve()
    assert result.stats.nodes_processed > 10
    assert len(built) == 1
