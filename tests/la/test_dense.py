"""Unit and property tests for repro.la.dense."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NotPositiveDefiniteError, ShapeError, SingularMatrixError
from repro.la.dense import (
    back_substitution,
    cholesky,
    forward_substitution,
    lu_factor,
    lu_solve,
    solve,
)


def random_matrix(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    # Diagonal shift keeps condition numbers reasonable for exact checks.
    return rng.standard_normal((n, n)) + n * np.eye(n)


class TestLUFactor:
    def test_reconstruction_small(self):
        a = np.array([[4.0, 3.0], [6.0, 3.0]])
        f = lu_factor(a)
        perm = f.permutation()
        np.testing.assert_allclose(a[perm], f.lower() @ f.upper(), atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 17, 40])
    def test_reconstruction_random(self, n):
        a = random_matrix(n, seed=n)
        f = lu_factor(a)
        np.testing.assert_allclose(
            a[f.permutation()], f.lower() @ f.upper(), atol=1e-9
        )

    def test_partial_pivoting_picks_largest(self):
        a = np.array([[1e-12, 1.0], [1.0, 1.0]])
        f = lu_factor(a)
        assert f.piv[0] == 1  # swapped to put the 1.0 on the diagonal

    def test_singular_matrix_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError):
            lu_factor(a)

    def test_zero_matrix_raises(self):
        with pytest.raises(SingularMatrixError):
            lu_factor(np.zeros((3, 3)))

    def test_non_square_raises(self):
        with pytest.raises(ShapeError):
            lu_factor(np.ones((2, 3)))

    def test_identity(self):
        f = lu_factor(np.eye(4))
        np.testing.assert_allclose(f.lower() @ f.upper(), np.eye(4))

    def test_input_not_mutated(self):
        a = random_matrix(6, seed=1)
        a_copy = a.copy()
        lu_factor(a)
        np.testing.assert_array_equal(a, a_copy)


class TestLUSolve:
    @pytest.mark.parametrize("n", [1, 3, 10, 32])
    def test_solve_matches_numpy(self, n):
        a = random_matrix(n, seed=100 + n)
        b = np.random.default_rng(n).standard_normal(n)
        x = lu_solve(lu_factor(a), b)
        np.testing.assert_allclose(x, np.linalg.solve(a, b), atol=1e-8)

    @pytest.mark.parametrize("n", [2, 7, 20])
    def test_transposed_solve(self, n):
        a = random_matrix(n, seed=200 + n)
        b = np.random.default_rng(n).standard_normal(n)
        x = lu_solve(lu_factor(a), b, transposed=True)
        np.testing.assert_allclose(x, np.linalg.solve(a.T, b), atol=1e-8)

    def test_rhs_length_mismatch(self):
        f = lu_factor(np.eye(3))
        with pytest.raises(ShapeError):
            lu_solve(f, np.ones(4))

    def test_solve_convenience(self):
        a = random_matrix(5, seed=3)
        b = np.arange(5.0)
        np.testing.assert_allclose(solve(a, b), np.linalg.solve(a, b), atol=1e-9)


class TestTriangularSolves:
    def test_forward(self):
        l = np.array([[2.0, 0.0], [1.0, 3.0]])
        x = forward_substitution(l, np.array([4.0, 11.0]))
        np.testing.assert_allclose(x, [2.0, 3.0])

    def test_forward_unit_diagonal_ignores_diag(self):
        l = np.array([[99.0, 0.0], [1.0, 99.0]])
        x = forward_substitution(l, np.array([1.0, 3.0]), unit_diagonal=True)
        np.testing.assert_allclose(x, [1.0, 2.0])

    def test_backward(self):
        u = np.array([[2.0, 1.0], [0.0, 4.0]])
        x = back_substitution(u, np.array([5.0, 8.0]))
        np.testing.assert_allclose(x, [1.5, 2.0])

    def test_forward_zero_diag_raises(self):
        with pytest.raises(SingularMatrixError):
            forward_substitution(np.zeros((2, 2)), np.ones(2))

    def test_backward_zero_diag_raises(self):
        with pytest.raises(SingularMatrixError):
            back_substitution(np.zeros((2, 2)), np.ones(2))


class TestCholesky:
    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_reconstruction(self, n):
        rng = np.random.default_rng(300 + n)
        g = rng.standard_normal((n, n))
        a = g @ g.T + n * np.eye(n)
        l = cholesky(a)
        np.testing.assert_allclose(l @ l.T, a, atol=1e-9)
        assert np.allclose(l, np.tril(l))

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_negative_diag(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky(-np.eye(3))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_lu_roundtrip(n, seed):
    """PA = LU holds and solve() inverts matvec for any well-conditioned A."""
    a = random_matrix(n, seed)
    f = lu_factor(a)
    np.testing.assert_allclose(a[f.permutation()], f.lower() @ f.upper(), atol=1e-8)
    x_true = np.random.default_rng(seed).standard_normal(n)
    np.testing.assert_allclose(lu_solve(f, a @ x_true), x_true, atol=1e-6)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_cholesky_matches_lu_solve(n, seed):
    """Cholesky-based solve agrees with LU-based solve on SPD systems."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    a = g @ g.T + n * np.eye(n)
    b = rng.standard_normal(n)
    l = cholesky(a)
    y = forward_substitution(l, b)
    x_chol = back_substitution(l.T, y)
    np.testing.assert_allclose(x_chol, solve(a, b), atol=1e-6)
