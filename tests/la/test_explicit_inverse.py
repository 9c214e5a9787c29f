"""``ExplicitInverse``: B⁻¹ resident, one GEMV per solve, one GER per pivot."""

import numpy as np
import pytest

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
