"""Tests for LinearProgram and standard-form conversion.

The last section pins the index/mask conversion to the per-variable
loops it replaced (kept verbatim in ``_reference_standard_form.py``,
bound rows taken out into ``upper`` by its ``bounds_beside``): every
array of the :class:`StandardFormLP` agrees in shape, dtype, value *and*
sign bit (``-1.0 * 0.0`` is ``-0.0`` in a split column, in both), and so
does ``recover_x`` on any standard-form point.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProblemFormatError
from repro.lp.problem import LinearProgram, StandardFormLP
from repro.problems.knapsack import generate_knapsack

from . import _reference_standard_form as ref


class TestValidation:
    def test_minimal(self):
        lp = LinearProgram(c=[1.0, 2.0])
        assert lp.n == 2
        np.testing.assert_array_equal(lp.lb, [0.0, 0.0])
        assert np.all(np.isinf(lp.ub))

    def test_bad_a_ub_width(self):
        with pytest.raises(ProblemFormatError):
            LinearProgram(c=[1.0], a_ub=[[1.0, 2.0]], b_ub=[1.0])

    def test_b_without_a(self):
        with pytest.raises(ProblemFormatError):
            LinearProgram(c=[1.0], b_ub=[1.0])
        with pytest.raises(ProblemFormatError):
            LinearProgram(c=[1.0], b_eq=[1.0])

    def test_row_mismatch(self):
        with pytest.raises(ProblemFormatError):
            LinearProgram(c=[1.0], a_ub=[[1.0]], b_ub=[1.0, 2.0])

    def test_crossing_bounds(self):
        with pytest.raises(ProblemFormatError):
            LinearProgram(c=[1.0], lb=[2.0], ub=[1.0])

    def test_with_bounds_tightens_only(self):
        lp = LinearProgram(c=[1.0], lb=[0.0], ub=[10.0])
        child = lp.with_bounds(0, lb=3.0, ub=12.0)
        assert child.lb[0] == 3.0
        assert child.ub[0] == 10.0  # cannot loosen

    def test_density(self):
        lp = LinearProgram(
            c=[1.0, 1.0], a_ub=[[1.0, 0.0], [0.0, 0.0]], b_ub=[1.0, 1.0]
        )
        assert lp.density() == pytest.approx(0.25)


class TestStandardForm:
    def test_simple_inequality(self):
        lp = LinearProgram(c=[3.0, 2.0], a_ub=[[1.0, 1.0]], b_ub=[4.0])
        sf = lp.to_standard_form()
        assert sf.m == 1
        assert sf.n == 3  # two structural + one slack
        np.testing.assert_allclose(sf.a, [[1.0, 1.0, 1.0]])
        np.testing.assert_allclose(sf.b, [4.0])

    def test_shifted_lower_bound(self):
        lp = LinearProgram(c=[1.0], a_ub=[[1.0]], b_ub=[10.0], lb=[2.0])
        sf = lp.to_standard_form()
        np.testing.assert_allclose(sf.b, [8.0])
        assert sf.offset == pytest.approx(2.0)
        x = sf.recover_x(np.array([3.0, 5.0]))
        assert x[0] == pytest.approx(5.0)

    def test_free_variable_split(self):
        lp = LinearProgram(c=[1.0], lb=[-np.inf], a_eq=[[1.0]], b_eq=[5.0])
        sf = lp.to_standard_form()
        assert sf.num_structural == 2
        x = sf.recover_x(np.array([7.0, 2.0]))
        assert x[0] == pytest.approx(5.0)

    def test_upper_bound_becomes_row(self):
        """Only a variable free below keeps its bound as a row."""
        lp = LinearProgram(c=[1.0], lb=[-np.inf], ub=[3.0])
        sf = lp.to_standard_form()
        assert sf.m == 1  # the bound row
        np.testing.assert_allclose(sf.b, [3.0])
        assert np.all(np.isinf(sf.upper))

    def test_upper_bound_sits_beside_the_rows(self):
        lp = LinearProgram(c=[1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[4.0], lb=[1.0, 2.0], ub=[3.0, 2.0])
        sf = lp.to_standard_form()
        assert sf.a.shape == (1, 3)  # the real row and its slack only
        np.testing.assert_array_equal(sf.upper, [2.0, 0.0, np.inf])
        assert lp.bounded_shape() == sf.a.shape

    def test_a_form_built_without_upper_has_none(self):
        sf = StandardFormLP(c=np.zeros(2), a=np.ones((1, 2)), b=np.ones(1))
        np.testing.assert_array_equal(sf.upper, [np.inf, np.inf])

    def test_bounds_as_rows(self):
        """A finite, positive bound becomes a row; the fixed slack keeps its 0."""
        lp = LinearProgram(c=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[2.0], ub=[3.0, np.inf])
        posed = lp.to_standard_form().with_bounds_as_rows()
        np.testing.assert_array_equal(posed.a, [[1.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 1.0]])
        np.testing.assert_array_equal(posed.b, [2.0, 3.0])
        np.testing.assert_array_equal(posed.upper, [np.inf, np.inf, 0.0, np.inf])


# -- bit-identity with the per-variable loops -----------------------------------

#: Small integers and halves, with both zeros: exact ties and signed
#: zeros are the common case, as they are in branch-and-bound node LPs.
VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0, 7.0])


def assert_same_bits(new, old) -> None:
    new, old = np.asarray(new), np.asarray(old)
    assert new.dtype == old.dtype
    assert new.shape == old.shape
    assert np.array_equal(new, old)
    if new.dtype.kind == "f":
        assert np.array_equal(np.signbit(new), np.signbit(old))


def assert_same_form(new: StandardFormLP, old: StandardFormLP) -> None:
    for field in dataclasses.fields(StandardFormLP):
        a, b = getattr(new, field.name), getattr(old, field.name)
        if isinstance(b, np.ndarray):
            assert_same_bits(a, b)
        else:
            assert type(a) is type(b) and a == b
            if isinstance(b, float):
                assert np.signbit(a) == np.signbit(b)
    assert new.a.flags.c_contiguous and old.a.flags.c_contiguous


@st.composite
def linear_programs(draw):
    n = draw(st.integers(1, 6))

    def vector(size):
        return np.array(draw(st.lists(VALUES, min_size=size, max_size=size)))

    # Per variable: free below (split), shifted by a finite lb (incl.
    # ±0.0 and negative), and with or without a finite ub.
    lb = np.array(
        draw(st.lists(st.sampled_from([0.0, -0.0, -np.inf, -3.0, 1.5]), min_size=n, max_size=n))
    )
    gap = np.array(
        draw(st.lists(st.sampled_from([np.inf, 0.0, 1.0, 4.5]), min_size=n, max_size=n))
    )
    ub = np.where(np.isfinite(lb), lb, 0.0) + gap
    kwargs = {}
    rows_ub = draw(st.sampled_from([None, 0, 1, 3]))
    if rows_ub is not None:
        kwargs["a_ub"] = vector(rows_ub * n).reshape(rows_ub, n)
        kwargs["b_ub"] = vector(rows_ub)
    rows_eq = draw(st.sampled_from([None, 1, 2]))
    if rows_eq is not None:
        kwargs["a_eq"] = vector(rows_eq * n).reshape(rows_eq, n)
        kwargs["b_eq"] = vector(rows_eq)
    return LinearProgram(c=vector(n), lb=lb, ub=ub, **kwargs)


@settings(deadline=None)
@given(lp=linear_programs(), data=st.data())
def test_standard_form_and_recovery_equal_reference(lp, data):
    new = lp.to_standard_form()
    old = ref.bounds_beside(lp)
    assert_same_form(new, old)

    x_standard = np.array(
        data.draw(st.lists(VALUES, min_size=new.n, max_size=new.n))
    )
    assert_same_bits(new.recover_x(x_standard), ref.recover_x(old, x_standard))
    as_ints = np.arange(new.n)
    assert_same_bits(new.recover_x(as_ints), ref.recover_x(old, as_ints))


def test_empty_a_ub_block_is_not_no_a_ub():
    """A (0, n) ``a_ub`` and ``a_ub=None`` both work and both match."""
    for kwargs in ({}, {"a_ub": np.zeros((0, 2)), "b_ub": np.zeros(0)}):
        lp = LinearProgram(c=[1.0, -1.0], lb=[-np.inf, 2.0], ub=[5.0, np.inf], **kwargs)
        assert_same_form(lp.to_standard_form(), ref.bounds_beside(lp))


def test_every_variable_split_and_bounded():
    lp = LinearProgram(
        c=[0.0, -0.0, 2.0],
        a_ub=[[0.0, 1.0, -0.0]],
        b_ub=[4.0],
        a_eq=[[1.0, 0.0, 1.0]],
        b_eq=[-0.0],
        lb=[-np.inf] * 3,
        ub=[1.0, 2.0, 3.0],
    )
    new = lp.to_standard_form()
    assert_same_form(new, ref.bounds_beside(lp))
    assert new.num_structural == 6 and new.a.shape == (5, 11)
    # The split column of a +0.0 entry really is -0.0 (sign * value).
    assert np.signbit(new.a[0, 1]) and not np.signbit(new.a[0, 0])


@pytest.mark.parametrize("n", [5, 30])
def test_knapsack_node_lp(n):
    """The hot shape: a 0/1 knapsack relaxation with two bounds tightened."""
    lp = generate_knapsack(n, seed=1).relaxation()
    node = lp.with_bounds(0, ub=0.0).with_bounds(n - 1, lb=1.0)
    new = node.to_standard_form()
    old = ref.bounds_beside(node)
    assert_same_form(new, old)
    x_standard = np.linspace(-1.0, 1.0, new.n)
    assert_same_bits(new.recover_x(x_standard), ref.recover_x(old, x_standard))


# -- every row has a slack ----------------------------------------------------------


def assert_every_row_has_its_slack(form: StandardFormLP, fixed: np.ndarray) -> None:
    """The last m columns are the identity, row i's slack fixed at 0
    where ``fixed[i]`` (an equality row) and unbounded otherwise."""
    m = form.m
    assert np.array_equal(form.a[:, form.n - m:], np.eye(m))
    assert np.array_equal(form.upper[form.n - m:], np.where(fixed, 0.0, np.inf))
    assert np.array_equal(form.c[form.n - m:], np.zeros(m))


@settings(deadline=None)
@given(lp=linear_programs(), data=st.data())
def test_every_row_has_its_own_slack(lp, data):
    form = lp.to_standard_form()
    assert lp.bounded_shape() == form.a.shape
    fixed = np.arange(form.m) >= form.m - lp.num_eq_rows
    assert_every_row_has_its_slack(form, fixed)

    # Other bounds on the same problem (a tree node).
    ub = np.maximum(lp.lb, lp.ub - data.draw(st.sampled_from([0.0, 1.0])))
    assert_every_row_has_its_slack(form.rebounded(lp.with_bound_vectors(lp.lb, ub)), fixed)

    # A row over the structural columns brings its own unbounded slack.
    k = data.draw(st.integers(1, 2))
    rows = np.zeros((k, form.n))
    rows[:, : form.num_structural] = np.array(
        data.draw(st.lists(VALUES, min_size=k * form.num_structural, max_size=k * form.num_structural))
    ).reshape(k, form.num_structural)
    grown = form.with_appended_rows(rows, np.ones(k))
    assert_every_row_has_its_slack(grown, np.concatenate([fixed, np.zeros(k, dtype=bool)]))
    # One over every column (a cut on slacks too) leaves them unit lower triangular.
    rows[:, form.num_structural:] = 1.0
    cut = form.with_appended_rows(rows, np.ones(k)).a[:, -(form.m + k):]
    assert np.array_equal(np.triu(cut), np.eye(form.m + k))

    posed = form.with_bounds_as_rows()
    assert_every_row_has_its_slack(
        posed, np.concatenate([fixed, np.zeros(posed.m - form.m, dtype=bool)])
    )
