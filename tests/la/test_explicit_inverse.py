"""``ExplicitInverse``: B⁻¹ resident, one GEMV per solve, one GER per pivot."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError, SingularMatrixError
from repro.la.updates import ExplicitInverse, ProductFormInverse


def basis(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + n * np.eye(n)


@pytest.mark.parametrize("n", [1, 2, 7, 24])
def test_solves_both_sides(n):
    b = basis(n, n)
    inverse = ExplicitInverse(b)
    rhs = np.arange(1.0, n + 1)
    assert inverse.n == n and inverse.num_etas == 0
    np.testing.assert_allclose(inverse.ftran(rhs), np.linalg.solve(b, rhs), atol=1e-12)
    np.testing.assert_allclose(inverse.btran(rhs), np.linalg.solve(b.T, rhs), atol=1e-12)


@pytest.mark.parametrize("n", [1, 5, 16])
def test_a_chain_of_column_swaps_tracks_the_product_form(n):
    """Same pivots on both representations: same solves, to round-off."""
    rng = np.random.default_rng(n)
    b = basis(n, 100 + n)
    inverse, pfi = ExplicitInverse(b), ProductFormInverse(b)
    for step in range(2 * n):
        pos, column = int(rng.integers(n)), rng.standard_normal(n) + 1.0
        w = inverse.ftran(column)
        np.testing.assert_allclose(w, pfi.ftran(column), atol=1e-9)
        if abs(w[pos]) < 0.1:
            continue
        inverse.update(w, pos)
        pfi.update(pfi.ftran(column), pos)
        b[:, pos] = column
        rhs = rng.standard_normal(n)
        np.testing.assert_allclose(inverse.ftran(rhs), np.linalg.solve(b, rhs), atol=1e-8)
        np.testing.assert_allclose(inverse.btran(rhs), pfi.btran(rhs), atol=1e-8)
    assert inverse.num_etas == pfi.num_etas > 0
    inverse.refactorize(b)
    assert inverse.num_etas == 0
    np.testing.assert_allclose(inverse.ftran(rhs), np.linalg.solve(b, rhs), atol=1e-11)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    updates=st.integers(min_value=0, max_value=8),
)
def test_a_row_is_the_btran_of_its_unit_vector(n, seed, updates):
    """``row(r)`` holds ``btran(e_r)``'s values, fresh and after a chain
    of rank-1 updates: the product adds zeros to one entry times 1.0."""
    rng = np.random.default_rng(seed)
    inverse = ExplicitInverse(basis(n, seed))

    def rows_match():
        for r in range(n):
            e_r = np.zeros(n)
            e_r[r] = 1.0
            assert np.array_equal(inverse.row(r), inverse.btran(e_r)), r

    rows_match()
    for _ in range(updates):
        pos = int(rng.integers(n))
        w = inverse.ftran(rng.standard_normal(n) + 1.0)
        if abs(w[pos]) < 0.1:
            continue
        kept = inverse.row(pos)
        before = kept.copy()
        inverse.update(w, pos)
        # A row read stays what it was: the update rebinds the matrix.
        assert np.array_equal(kept, before)
        rows_match()


def test_a_clone_shares_the_matrix_and_updates_never_write_it():
    b = basis(6, 1)
    parent = ExplicitInverse(b)
    resident = parent._inverse
    snapshot = resident.copy()
    child, sibling = parent.clone(), parent.clone()
    assert child._inverse is resident and sibling._inverse is resident
    column = np.arange(1.0, 7.0)
    child.update(child.ftran(column), 2)
    child.update(child.ftran(column[::-1].copy()), 4)
    assert child.num_etas == 2 and parent.num_etas == sibling.num_etas == 0
    assert parent._inverse is resident and sibling._inverse is resident
    assert np.array_equal(resident, snapshot)
    grandchild = child.clone()
    assert grandchild.num_etas == 2 and grandchild._inverse is child._inverse
    child.refactorize(b)
    assert np.array_equal(resident, snapshot) and grandchild.num_etas == 2


def test_singular_and_misshapen_inputs_are_refused():
    with pytest.raises(SingularMatrixError):
        ExplicitInverse(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(ShapeError):
        ExplicitInverse(np.ones((2, 3)))
    inverse = ExplicitInverse(np.eye(3))
    with pytest.raises(SingularMatrixError):
        inverse.update(np.array([1.0, 0.0, 1.0]), 1)  # dependent entering column
    with pytest.raises(ShapeError):
        inverse.update(np.ones(2), 0)
    with pytest.raises(ShapeError):
        inverse.refactorize(np.eye(2))
    assert inverse.num_etas == 0
