"""One problem record: an LP and a MIP are the same seven arrays.

Every operation that derives one problem from another — ``relaxation()``,
``with_bounds``, ``restricted``, a sanitizer pass that repairs nothing —
and the content fingerprint must keep every array of
:data:`repro.lp.problem.ARRAYS` and the problem's kind.  ``with_bounds``
shares the matrices instead of copying them, and must still equal the
copying version it replaced value for value, and a MIP's vectorized
integer-bound rounding the per-variable loop it replaced.  The problems
are the mini-MIPLIB generators, the fuzzer's draws, their relaxations
and the cluster's S2 LPs.
"""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.check.fuzz import FuzzOptions, _draw_instance
from repro.check.shrinker import _rebuild
from repro.cluster import s2_pool
from repro.errors import ProblemFormatError
from repro.guard.sanitize import sanitize_problem
from repro.lp.problem import ARRAYS, LinearProgram, ProblemRecord
from repro.mip.problem import DEFAULT_INTEGER_BOUND, MIPProblem
from repro.problems.miplib import MINI_MIPLIB
from repro.serve.request import fingerprint

GENERATED = [build() for build in MINI_MIPLIB.values()]

mips = st.one_of(
    st.sampled_from(GENERATED),
    st.integers(0, 2**31 - 1).map(
        lambda seed: _draw_instance(np.random.default_rng(seed), FuzzOptions())
    ),
)
lps = st.one_of(mips.map(MIPProblem.relaxation), st.sampled_from(s2_pool(16)))
problems = st.one_of(mips, lps)


def assert_same_arrays(left, right, skip=()):
    for name in ARRAYS:
        if name in skip:
            continue
        a, b = getattr(left, name), getattr(right, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype and a.shape == b.shape, name
            np.testing.assert_array_equal(a, b, err_msg=name)


def assert_same_kind(left, right):
    assert type(left) is type(right)
    if isinstance(left, MIPProblem):
        np.testing.assert_array_equal(left.integer, right.integer)
        assert left.name == right.name


def copying_with_bounds(lp, index, lb=None, ub=None):
    """``with_bounds`` as it was: a fresh LP on copies of every array."""
    new_lb, new_ub = lp.lb.copy(), lp.ub.copy()
    if lb is not None:
        new_lb[index] = max(new_lb[index], lb)
    if ub is not None:
        new_ub[index] = min(new_ub[index], ub)
    return LinearProgram(**dict(lp.arrays(copy=True), lb=new_lb, ub=new_ub))


def test_a_mip_is_the_record_but_not_an_lp():
    mip = GENERATED[0]
    assert isinstance(mip, ProblemRecord) and not isinstance(mip, LinearProgram)
    assert [f.name for f in dataclasses.fields(mip)] == [*ARRAYS, "integer", "name"]
    with pytest.raises(ProblemFormatError):
        MIPProblem(c=mip.c, a_ub=mip.a_ub, b_ub=mip.b_ub)


@given(mips)
def test_relaxation_copies_every_array(mip):
    lp = mip.relaxation()
    assert type(lp) is LinearProgram
    assert_same_arrays(lp, mip)
    for name in ARRAYS:
        if getattr(mip, name) is not None:
            assert not np.shares_memory(getattr(lp, name), getattr(mip, name))


@given(lps, st.data())
def test_with_bounds_shares_the_matrices_and_equals_the_copying_version(lp, data):
    j = data.draw(st.integers(0, lp.n - 1))
    lo, hi = lp.lb[j], lp.ub[j]
    if np.isfinite(lo) and np.isfinite(hi):
        value = data.draw(st.floats(lo, hi))
        lb, ub = data.draw(st.sampled_from([(value, None), (None, value), (value, value)]))
    else:
        lb, ub = data.draw(st.sampled_from([(None, None), (lo, None), (None, hi)]))
    before = lp.arrays(copy=True)
    child = lp.with_bounds(j, lb=lb, ub=ub)
    assert type(child) is LinearProgram
    assert_same_arrays(child, copying_with_bounds(lp, j, lb=lb, ub=ub))
    for name in ARRAYS[:5]:
        assert getattr(child, name) is getattr(lp, name)
    assert_same_arrays(lp, LinearProgram(**before))


@given(mips, st.data())
def test_restricted_keeps_the_record_and_the_mask(mip, data):
    j = data.draw(st.integers(0, mip.n - 1))
    lb, ub = mip.lb.copy(), mip.ub.copy()
    if np.isfinite(ub[j]):
        lb[j] = ub[j]
    sub = mip.restricted(lb, ub)
    assert_same_kind(sub, mip)
    assert_same_arrays(sub, mip, skip=("lb", "ub"))
    np.testing.assert_array_equal(sub.lb, lb)
    np.testing.assert_array_equal(sub.ub, ub)


@given(problems)
def test_a_no_op_sanitizer_pass_keeps_the_problem(problem):
    repaired = sanitize_problem(problem).problem
    assert_same_kind(repaired, problem)
    again = sanitize_problem(repaired)
    assert not again.repaired
    assert again.problem is repaired


@given(problems, st.data())
def test_the_fingerprint_reads_every_array_and_the_kind(problem, data):
    key = fingerprint(problem)
    assert fingerprint(dataclasses.replace(problem)) == key
    # Any finite entry of any array moves the key (a bound only loosens).
    arrays = {n: a for n, a in problem.arrays().items() if a is not None}
    finite = {n: np.isfinite(a).ravel().nonzero()[0] for n, a in arrays.items()}
    name = data.draw(st.sampled_from([n for n in arrays if finite[n].size]))
    moved = arrays[name].copy()
    moved.flat[data.draw(st.sampled_from(finite[name]))] += -1.0 if name == "lb" else 1.0
    assert fingerprint(dataclasses.replace(problem, **{name: moved})) != key
    if isinstance(problem, MIPProblem):
        assert fingerprint(problem.relaxation()) != key


def looped_rounding(lb, ub, integer):
    """A MIP's integer-bound rounding as the per-variable loop it was."""
    lb, ub = lb.copy(), ub.copy()
    for j in np.nonzero(integer)[0]:
        if not np.isfinite(lb[j]):
            lb[j] = -DEFAULT_INTEGER_BOUND
        if not np.isfinite(ub[j]):
            ub[j] = DEFAULT_INTEGER_BOUND
        lb[j] = np.ceil(lb[j] - 1e-9)
        ub[j] = np.floor(ub[j] + 1e-9)
        if lb[j] > ub[j]:
            raise ProblemFormatError(
                f"integer variable {j} has empty bound box [{lb[j]}, {ub[j]}]"
            )
    return lb, ub


@given(
    st.lists(
        st.tuples(
            st.sampled_from([-np.inf, -2.5, 0.0, 0.3, 1.0, 1.0 - 1e-10, np.nan]),
            st.sampled_from([np.inf, 0.7, 1.0, 3.2, 1e7, np.nan]),
            st.booleans(),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_integer_rounding_equals_the_loop(columns):
    lb, ub, integer = (np.array(v) for v in zip(*columns))
    assume(not (lb > ub + 1e-12).any())
    build = lambda: MIPProblem(c=np.zeros(lb.size), integer=integer, lb=lb.copy(), ub=ub.copy())
    try:
        expected = looped_rounding(lb, ub, integer)
    except ProblemFormatError as exc:
        with pytest.raises(ProblemFormatError, match=re.escape(str(exc))):
            build()
        return
    mip = build()
    np.testing.assert_array_equal(mip.lb, expected[0])
    np.testing.assert_array_equal(mip.ub, expected[1])


def test_a_mip_over_read_only_integral_bounds_constructs():
    # A tree node box is read-only; integral bounds need no rounding, so
    # the record keeps the caller's arrays and writes nothing.
    lb, ub = np.zeros(3), np.array([1.0, 4.0, np.inf])
    lb.flags.writeable = ub.flags.writeable = False
    mip = MIPProblem(c=np.ones(3), integer=np.array([True, True, False]), lb=lb, ub=ub)
    assert mip.lb is lb and mip.ub is ub


def test_a_mip_over_fractional_bounds_leaves_the_callers_arrays_alone():
    lb, ub = np.array([0.5, -np.inf, 0.0]), np.array([2.7, 3.0, 1.5])
    held_lb, held_ub = lb.copy(), ub.copy()
    mip = MIPProblem(c=np.ones(3), integer=np.array([True, True, False]), lb=lb, ub=ub)
    np.testing.assert_array_equal(lb, held_lb)
    np.testing.assert_array_equal(ub, held_ub)
    assert mip.lb.tolist() == [1.0, -DEFAULT_INTEGER_BOUND, 0.0]
    assert mip.ub.tolist() == [2.0, 3.0, 1.5]


@given(mips)
def test_a_shrink_rebuild_dropping_nothing_equals_its_input(mip):
    again = _rebuild(mip)
    assert again is not mip
    assert_same_arrays(again, mip)
    np.testing.assert_array_equal(again.integer, mip.integer)
    for name in ARRAYS:
        array = getattr(mip, name)
        assert array is None or not np.shares_memory(getattr(again, name), array), name
