"""Reduced-cost fixing in the node loop, refereed by HiGHS.

Every node that branches with an incumbent tightens its subtree's
integer bounds from its reduced costs
(:meth:`BranchAndBoundSolver._fix_by_reduced_cost`).  A tightening rests
on the incumbent, not on the LP alone, so the branch-and-bound lanes
cannot referee it among themselves.  Held here against HiGHS (the
``highs`` run of :mod:`repro.check.differential`), over strong knapsacks, general-integer and
mixed-integer random MIPs, TSPs (equality rows, their slacks fixed at 0,
and redundant MTZ rows) and a branch-and-cut run (the pre-cut ``d``):

(i)   the search's optimum is HiGHS's;
(ii)  every tightening is implied by the incumbent of its moment: the
      node's box LP with the variable forced one step past the new
      bound is infeasible or worth no more than that incumbent;
(iii) a search killed and resumed from snapshots whose leaf boxes carry
      fixings reaches the same optimum.

The hypothesis budget is a fifth of the active profile's (20 examples
in tier-1; ``--hypothesis-profile=ci`` runs 5x that).
"""

import contextlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check.differential import _highs_run
from repro.faults.injector import injecting
from repro.faults.plan import SITE_NODE, FaultPlan, ScheduledFault
from repro.faults.recovery import solve_with_checkpoint_resume
from repro.mip import snapshot as snapshot_module
from repro.mip.result import MIPStatus
from repro.mip.snapshot import resume_from_snapshot
from repro.mip.solver import BranchAndBoundSolver, SolverOptions
from repro.problems.knapsack import generate_knapsack
from repro.problems.random_mip import generate_random_mip
from repro.problems.tsp import generate_tsp

PROPERTY = settings(
    max_examples=max(1, settings().max_examples // 5),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: (builder(seed), solver options) per corpus family.
CORPUS = {
    "knapsack-strong": (
        lambda s: generate_knapsack(12, seed=s, correlation="strong"),
        SolverOptions(),
    ),
    "general-integer": (
        lambda s: generate_random_mip(8, 5, seed=s, integer_fraction=1.0, bound=4.0),
        SolverOptions(),
    ),
    "mixed-integer": (
        lambda s: generate_random_mip(10, 6, seed=s, integer_fraction=0.5, bound=4.0),
        SolverOptions(),
    ),
    "tsp": (lambda s: generate_tsp(4, seed=s), SolverOptions()),
    "branch-and-cut": (
        lambda s: generate_random_mip(10, 6, seed=s, integer_fraction=1.0),
        SolverOptions(cut_rounds=2),
    ),
}


def highs_optimum(problem):
    run = _highs_run(problem, problem.integer.astype(int))
    assert run.status == "optimal", run.note
    return run.objective


def highs_box_lp(problem, lb, ub):
    """HiGHS's LP optimum over ``[lb, ub]``; None when it is empty."""
    run = _highs_run(problem.relaxation().with_bound_vectors(lb, ub), np.zeros(problem.n))
    if run.status == "infeasible":
        return None
    assert run.status == "optimal", run.note
    return run.objective


@contextlib.contextmanager
def recorded_fixings():
    """Every fixing step: ``(node box, incumbent, new BoundChanges)``."""
    book = []
    fix = BranchAndBoundSolver._fix_by_reduced_cost

    def spy(self, node, sf, res, incumbent, columns):
        assert np.all(res.basis < sf.n)  # every row has a slack: no artificial
        known = len(node.fixings)
        fix(self, node, sf, res, incumbent, columns)
        book.append((node.box, incumbent, node.fixings[known:]))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BranchAndBoundSolver, "_fix_by_reduced_cost", spy)
        yield book


def assert_implied_by_incumbent(problem, book):
    for (lb, ub), incumbent, changes in book:
        for change in changes:
            forced_lb, forced_ub = np.array(lb), np.array(ub)
            if change.kind == "ub":
                forced_lb[change.var] = change.value + 1.0
            else:
                forced_ub[change.var] = change.value - 1.0
            # A tightening always removes at least one integer value.
            assert forced_lb[change.var] <= forced_ub[change.var]
            value = highs_box_lp(problem, forced_lb, forced_ub)
            assert value is None or value <= incumbent + 1e-7 * (1.0 + abs(incumbent))


@PROPERTY
@given(family=st.sampled_from(sorted(CORPUS)), seed=st.integers(0, 2**16))
def test_fixing_keeps_the_optimum_and_every_tightening_is_implied(family, seed):
    build, options = CORPUS[family]
    problem = build(seed)
    with recorded_fixings() as book:
        result = BranchAndBoundSolver(problem, options).solve()
    assert result.status is MIPStatus.OPTIMAL
    assert result.objective == pytest.approx(highs_optimum(problem), rel=1e-6, abs=1e-6)
    assert_implied_by_incumbent(problem, book)


@pytest.mark.parametrize(
    "family,seed", [("tsp", 1), ("tsp", 9), ("knapsack-strong", 0), ("branch-and-cut", 1)]
)
def test_the_corpus_reaches_each_case(family, seed):
    """The property above is not vacuous: these searches tighten bounds,
    each tightening checked."""
    build, options = CORPUS[family]
    problem = build(seed)
    with recorded_fixings() as fixings:
        result = BranchAndBoundSolver(problem, options).solve()
    assert result.objective == pytest.approx(highs_optimum(problem), rel=1e-6, abs=1e-6)
    assert sum(len(changes) for _, _, changes in fixings) > 0
    assert_implied_by_incumbent(problem, fixings)


def leaves_carry_fixings(tree):
    """Does any open leaf's box hold a fixing from one of its ancestors?"""
    for leaf in tree.active_leaves():
        node = leaf
        while node.parent_id is not None:
            node = tree.node(node.parent_id)
            if node.fixings:
                return True
    return False


@pytest.fixture
def snapshots(monkeypatch):
    """Every snapshot a search captures, with whether it carries fixings."""
    taken = []
    capture = snapshot_module.capture_snapshot

    def spy(tree, incumbent_objective, incumbent_x):
        snap = capture(tree, incumbent_objective, incumbent_x)
        taken.append((snap, leaves_carry_fixings(tree)))
        return snap

    monkeypatch.setattr(snapshot_module, "capture_snapshot", spy)
    return taken


@pytest.mark.parametrize(
    "family,seed", [("knapsack-strong", 3), ("tsp", 155), ("general-integer", 0)]
)
def test_resume_from_snapshots_with_fixings(snapshots, family, seed):
    build, _ = CORPUS[family]
    problem = build(seed)
    expected = highs_optimum(problem)
    BranchAndBoundSolver(
        problem, SolverOptions(checkpoint_every=2, checkpoint_fn=lambda snap: None)
    ).solve()
    carrying = [snap for snap, carries in snapshots if carries]
    assert carrying
    for snap in carrying:
        resumed = resume_from_snapshot(problem, snap)
        assert resumed.status is MIPStatus.OPTIMAL
        assert resumed.objective == pytest.approx(expected, rel=1e-6, abs=1e-6)


def test_killed_search_resumes_through_fixed_leaves(snapshots):
    problem = CORPUS["knapsack-strong"][0](3)
    plan = FaultPlan(
        seed=0,
        scheduled=tuple(ScheduledFault(site=SITE_NODE, at=at) for at in range(9, 400, 10)),
    )
    with injecting(plan) as injector:
        result, stats = solve_with_checkpoint_resume(
            problem, SolverOptions(checkpoint_every=1)
        )
        assert injector.clean
    assert stats.restarts > 0 and any(carries for _, carries in snapshots)
    assert result.status is MIPStatus.OPTIMAL
    assert result.objective == pytest.approx(highs_optimum(problem), rel=1e-6, abs=1e-6)
