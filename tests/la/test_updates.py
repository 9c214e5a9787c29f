"""Tests for eta-file / product-form-of-inverse basis updates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError, SingularMatrixError
from repro.la.updates import (
    ProductFormInverse,
    make_eta,
)


def well_conditioned(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + n * np.eye(n)


def identity_with_eta(w: np.ndarray, pos: int) -> ProductFormInverse:
    """PFI whose LU part is the identity, so ftran/btran apply just E / Eᵀ."""
    pfi = ProductFormInverse(np.eye(w.shape[0]))
    pfi.update(w, pos)
    return pfi


class TestEtaFile:
    # An eta is applied inline by ProductFormInverse.ftran/btran (the
    # chain is one sequential loop there), so these go through them.
    def test_apply_matches_explicit_matrix(self):
        rng = np.random.default_rng(0)
        n, pos = 5, 2
        w = rng.standard_normal(n)
        w[pos] = 1.5  # safe pivot
        eta = make_eta(w, pos)
        e = np.eye(n)
        e[:, pos] = eta.column
        x = rng.standard_normal(n)
        pfi = identity_with_eta(w, pos)
        np.testing.assert_allclose(pfi.ftran(x), e @ x, atol=1e-12)
        np.testing.assert_allclose(pfi.btran(x), e.T @ x, atol=1e-12)

    def test_eta_inverts_basis_change(self):
        # E must satisfy E w = unit vector at pos, the defining property.
        w = np.array([0.5, 2.0, -1.0])
        out = identity_with_eta(w, 1).ftran(w)
        np.testing.assert_allclose(out, [0.0, 1.0, 0.0], atol=1e-12)

    def test_zero_pivot_raises(self):
        with pytest.raises(SingularMatrixError):
            make_eta(np.array([1.0, 0.0, 2.0]), 1)

    def test_apply_zero_at_pos(self):
        pfi = identity_with_eta(np.array([0.5, -1.5]), 0)
        np.testing.assert_array_equal(pfi._etas[0].column, [2.0, 3.0])
        out = pfi.ftran(np.array([0.0, 5.0]))
        np.testing.assert_allclose(out, [0.0, 5.0])


class TestProductFormInverse:
    def test_ftran_matches_direct_solve(self):
        b0 = well_conditioned(6, seed=1)
        pfi = ProductFormInverse(b0)
        rhs = np.arange(6.0)
        np.testing.assert_allclose(pfi.ftran(rhs), np.linalg.solve(b0, rhs), atol=1e-9)

    def test_btran_matches_transposed_solve(self):
        b0 = well_conditioned(6, seed=2)
        pfi = ProductFormInverse(b0)
        rhs = np.arange(6.0)
        np.testing.assert_allclose(
            pfi.btran(rhs), np.linalg.solve(b0.T, rhs), atol=1e-9
        )

    def test_update_tracks_column_replacement(self):
        """After updating position r with column a_q, solves match the
        explicitly rebuilt basis matrix."""
        rng = np.random.default_rng(3)
        n = 5
        b = well_conditioned(n, seed=3)
        pfi = ProductFormInverse(b)
        current = b.copy()
        for step in range(4):
            a_q = rng.standard_normal(n) + 1.0
            pos = step % n
            w = pfi.ftran(a_q)
            if abs(w[pos]) < 1e-8:
                continue
            pfi.update(w, pos)
            current[:, pos] = a_q
            rhs = rng.standard_normal(n)
            np.testing.assert_allclose(
                pfi.ftran(rhs), np.linalg.solve(current, rhs), atol=1e-7
            )
            np.testing.assert_allclose(
                pfi.btran(rhs), np.linalg.solve(current.T, rhs), atol=1e-7
            )

    def test_refactorize_resets_eta_count(self):
        b = well_conditioned(4, seed=4)
        pfi = ProductFormInverse(b)
        w = pfi.ftran(np.ones(4) * 2.0)
        pfi.update(w, 0)
        assert pfi.num_etas == 1
        new_b = b.copy()
        new_b[:, 0] = 2.0
        pfi.refactorize(new_b)
        assert pfi.num_etas == 0
        rhs = np.ones(4)
        np.testing.assert_allclose(
            pfi.ftran(rhs), np.linalg.solve(new_b, rhs), atol=1e-9
        )

    def test_non_square_raises(self):
        with pytest.raises(ShapeError):
            ProductFormInverse(np.ones((2, 3)))

    def test_bad_ftran_length_raises(self):
        pfi = ProductFormInverse(np.eye(3))
        with pytest.raises(ShapeError):
            pfi.update(np.ones(4), 0)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    updates=st.integers(min_value=1, max_value=6),
)
def test_property_pfi_equals_refactorization(n, seed, updates):
    """A chain of eta updates always agrees with factoring from scratch."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, n)) + n * np.eye(n)
    pfi = ProductFormInverse(b)
    current = b.copy()
    applied = 0
    for step in range(updates):
        a_q = rng.standard_normal(n) + n * 0.25
        pos = int(rng.integers(0, n))
        w = pfi.ftran(a_q)
        if abs(w[pos]) < 1e-6:
            continue  # would be an illegal (singular) basis change
        pfi.update(w, pos)
        current[:, pos] = a_q
        applied += 1
    rhs = rng.standard_normal(n)
    np.testing.assert_allclose(
        pfi.ftran(rhs), np.linalg.solve(current, rhs), atol=1e-5
    )
    assert pfi.num_etas == applied
