"""Property-based checkpoint round-trips: save→load→save is byte-identical
and resuming an interrupted search reaches the uninterrupted optimum."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mip.checkpoint import load_snapshot, save_snapshot
from repro.mip.snapshot import SearchSnapshot, capture_snapshot, resume_from_snapshot
from repro.mip.solver import BranchAndBoundSolver, SolverOptions
from repro.problems.random_mip import generate_random_mip

#: This module's own budget; loading a profile here would replace the
#: session's for every module collected after it.
PROPERTY = settings(deadline=None, max_examples=30)

bound_floats = st.one_of(
    st.floats(min_value=-8.0, max_value=8.0, allow_nan=False),
    st.just(-np.inf),
    st.just(np.inf),
)


@st.composite
def snapshots(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    num_leaves = draw(st.integers(min_value=0, max_value=4))
    leaves = []
    for _ in range(num_leaves):
        lo = np.array(draw(st.lists(bound_floats, min_size=n, max_size=n)))
        hi = np.array(draw(st.lists(bound_floats, min_size=n, max_size=n)))
        leaves.append((np.minimum(lo, hi), np.maximum(lo, hi)))
    has_incumbent = draw(st.booleans())
    if has_incumbent:
        x = np.array(
            draw(
                st.lists(
                    st.floats(min_value=-8.0, max_value=8.0, allow_nan=False),
                    min_size=n,
                    max_size=n,
                )
            )
        )
        obj = draw(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
        return SearchSnapshot(
            leaves=leaves, incumbent_objective=obj, incumbent_x=x
        )
    return SearchSnapshot(leaves=leaves)


class TestByteIdenticalRoundTrip:
    @PROPERTY
    @given(snap=snapshots())
    def test_save_load_save_is_byte_identical(self, snap, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("ckpt")
        first = str(tmp / "first.json")
        second = str(tmp / "second.json")
        save_snapshot(snap, first)
        save_snapshot(load_snapshot(first), second)
        with open(first, "rb") as fh:
            original = fh.read()
        with open(second, "rb") as fh:
            rewritten = fh.read()
        assert original == rewritten

    @PROPERTY
    @given(snap=snapshots())
    def test_load_recovers_exact_values(self, snap, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("ckpt")
        path = str(tmp / "snap.json")
        save_snapshot(snap, path)
        loaded = load_snapshot(path)
        assert loaded.num_leaves == snap.num_leaves
        for (lb, ub), (lb2, ub2) in zip(snap.leaves, loaded.leaves):
            np.testing.assert_array_equal(lb, lb2)
            np.testing.assert_array_equal(ub, ub2)
        if snap.incumbent_x is None:
            assert loaded.incumbent_x is None
        else:
            np.testing.assert_array_equal(snap.incumbent_x, loaded.incumbent_x)
            assert loaded.incumbent_objective == snap.incumbent_objective


class TestResumeReachesSameIncumbent:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("node_limit", [2, 5])
    def test_interrupted_solve_resumes_to_full_optimum(
        self, seed, node_limit, tmp_path
    ):
        problem = generate_random_mip(7, 5, seed=seed, density=0.8)
        full = BranchAndBoundSolver(problem, SolverOptions()).solve()
        assert full.ok

        partial = BranchAndBoundSolver(
            problem, SolverOptions(node_limit=node_limit, keep_tree=True)
        ).solve()
        incumbent = partial.objective if partial.x is not None else -np.inf
        snap = capture_snapshot(
            partial.tree, incumbent_objective=incumbent, incumbent_x=partial.x
        )
        path = str(tmp_path / f"s{seed}-{node_limit}.json")
        save_snapshot(snap, path)

        resumed = resume_from_snapshot(problem, load_snapshot(path))
        assert resumed.objective == pytest.approx(full.objective, rel=1e-9)
