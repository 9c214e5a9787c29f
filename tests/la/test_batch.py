"""Tests for MAGMA-style batched dense kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError, SingularMatrixError
from repro.la.batch import (
    batched_back_substitution,
    batched_forward_substitution,
    batched_lu_factor,
    batched_lu_solve,
)
from repro.la.dense import lu_factor, lu_solve


def random_batch(k, n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((k, n, n)) + n * np.eye(n)


class TestBatchedLU:
    @pytest.mark.parametrize("k,n", [(1, 1), (1, 5), (4, 3), (16, 8), (64, 4)])
    def test_matches_looped_single_lu(self, k, n):
        a = random_batch(k, n, seed=k * 31 + n)
        b = np.random.default_rng(7).standard_normal((k, n))
        lu, piv = batched_lu_factor(a)
        x = batched_lu_solve(lu, piv, b)
        for i in range(k):
            expected = lu_solve(lu_factor(a[i]), b[i])
            np.testing.assert_allclose(x[i], expected, atol=1e-8)

    def test_solve_matches_numpy(self):
        k, n = 8, 6
        a = random_batch(k, n, seed=99)
        b = np.random.default_rng(99).standard_normal((k, n))
        lu, piv = batched_lu_factor(a)
        x = batched_lu_solve(lu, piv, b)
        np.testing.assert_allclose(
            x, np.linalg.solve(a, b[..., None])[..., 0], atol=1e-8
        )

    def test_one_singular_member_raises_with_index(self):
        a = random_batch(3, 4, seed=1)
        a[1] = 0.0
        with pytest.raises(SingularMatrixError, match="batch member 1"):
            batched_lu_factor(a)

    def test_pivoting_within_batch(self):
        # Mix members that need different pivot rows at step 0.
        a = np.stack(
            [
                np.array([[1e-14, 1.0], [1.0, 1.0]]),
                np.array([[2.0, 1.0], [1e-14, 1.0]]),
            ]
        )
        lu, piv = batched_lu_factor(a)
        assert piv[0, 0] == 1 and piv[1, 0] == 0

    def test_bad_shape_raises(self):
        with pytest.raises(ShapeError):
            batched_lu_factor(np.ones((2, 3, 4)))
        lu, piv = batched_lu_factor(random_batch(2, 3, seed=0))
        with pytest.raises(ShapeError):
            batched_lu_solve(lu, piv, np.ones((2, 4)))

    def test_input_not_mutated(self):
        a = random_batch(3, 4, seed=12)
        a_copy = a.copy()
        batched_lu_factor(a)
        np.testing.assert_array_equal(a, a_copy)


class TestBatchedTriangular:
    def test_forward(self):
        k, n = 5, 4
        rng = np.random.default_rng(0)
        lower = np.tril(rng.standard_normal((k, n, n))) + 3 * np.eye(n)
        x_true = rng.standard_normal((k, n))
        b = np.einsum("kij,kj->ki", lower, x_true)
        np.testing.assert_allclose(
            batched_forward_substitution(lower, b), x_true, atol=1e-9
        )

    def test_backward(self):
        k, n = 5, 4
        rng = np.random.default_rng(1)
        upper = np.triu(rng.standard_normal((k, n, n))) + 3 * np.eye(n)
        x_true = rng.standard_normal((k, n))
        b = np.einsum("kij,kj->ki", upper, x_true)
        np.testing.assert_allclose(
            batched_back_substitution(upper, b), x_true, atol=1e-9
        )

    def test_zero_diag_raises(self):
        with pytest.raises(SingularMatrixError):
            batched_forward_substitution(np.zeros((1, 2, 2)), np.ones((1, 2)))
        with pytest.raises(SingularMatrixError):
            batched_back_substitution(np.zeros((1, 2, 2)), np.ones((1, 2)))


@settings(max_examples=25, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=12),
    n=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_batched_lu_equals_sequential(k, n, seed):
    """Batched LU is exactly the map of single LU across the batch."""
    a = random_batch(k, n, seed)
    b = np.random.default_rng(seed ^ 0xBEEF).standard_normal((k, n))
    lu, piv = batched_lu_factor(a)
    x = batched_lu_solve(lu, piv, b)
    for i in range(k):
        np.testing.assert_allclose(
            x[i], lu_solve(lu_factor(a[i]), b[i]), atol=1e-7
        )
