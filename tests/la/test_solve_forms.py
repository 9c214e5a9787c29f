"""``lu_solve`` with factor-time solve forms equals the per-call loops, bit for bit.

The oracle is the implementation this one replaced, kept verbatim in
``_reference_solves.py``: a Python swap loop over ``piv`` and freshly
built ``np.triu(lu).T`` / ``np.tril(lu, -1).T`` on every call.  Equal
means ``np.array_equal`` *and* equal sign bits (so ±0.0 agree) *and*
equal dtype and memory order — the search's node counts are pinned to
the last bit of these solves.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError, SingularMatrixError
from repro.la.dense import LUFactors, lu_factor, lu_solve
from repro.la.updates import ProductFormInverse

from . import _reference_solves as ref

SIZES = (1, 2, 7, 31, 32, 33, 64, 100)


def assert_same_bits(new: np.ndarray, old: np.ndarray) -> None:
    assert new.dtype == old.dtype
    assert new.shape == old.shape
    assert np.array_equal(new, old)
    assert np.array_equal(np.signbit(new), np.signbit(old))
    assert new.flags.c_contiguous == old.flags.c_contiguous
    assert new.flags.f_contiguous == old.flags.f_contiguous


def matrix(n: int, seed: int, pivots: bool) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    if not pivots:
        # Column diagonally dominant (and elimination keeps it so):
        # partial pivoting never swaps.
        a += np.diag(np.abs(a).sum(axis=0) + 1.0)
    return a


def rhs(n: int, seed: int, kind: str) -> np.ndarray:
    rng = np.random.default_rng(seed + 1)
    if kind == "int":
        return rng.integers(-4, 5, size=n)
    if kind == "vector":
        b = rng.standard_normal(n)
    elif kind == "block":
        b = rng.standard_normal((n, 3))
    else:  # "fortran": an (n, k) block in column-major order
        b = np.asfortranarray(rng.standard_normal((n, 4)))
    # Exact and signed zeros travel through the gathers untouched.
    b[rng.random(b.shape) < 0.2] = 0.0
    b[rng.random(b.shape) < 0.1] = -0.0
    return b


KINDS = ("vector", "block", "fortran", "int")


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("transposed", [False, True])
def test_every_size_and_rhs_kind(n, kind, transposed):
    """The full grid once, so no size rides on what Hypothesis samples."""
    for pivots in (False, True):
        factors = lu_factor(matrix(n, seed=n, pivots=pivots))
        b = rhs(n, n, kind)
        assert_same_bits(
            lu_solve(factors, b, transposed=transposed),
            ref.lu_solve(factors, b, transposed=transposed),
        )


@settings(deadline=None)
@given(
    n=st.sampled_from(SIZES),
    seed=st.integers(0, 2**16),
    pivots=st.booleans(),
    kind=st.sampled_from(KINDS),
    transposed=st.booleans(),
    order=st.sampled_from(["C", "F"]),
)
def test_lu_solve_equals_reference(n, seed, pivots, kind, transposed, order):
    factors = lu_factor(np.array(matrix(n, seed, pivots), order=order))
    if not pivots:
        assert np.array_equal(factors.piv, np.arange(n))
    b = rhs(n, seed, kind)
    before = np.array(b, copy=True)
    new = lu_solve(factors, b, transposed=transposed)
    assert_same_bits(new, ref.lu_solve(factors, b, transposed=transposed))
    # A second solve (forms now cached) repeats it, and b is untouched.
    assert_same_bits(lu_solve(factors, b, transposed=transposed), new)
    assert_same_bits(b, before)


@settings(deadline=None)
@given(
    n=st.sampled_from([2, 7, 33]),
    seed=st.integers(0, 2**16),
    updates=st.integers(1, 6),
)
def test_pfi_after_updates_equals_reference(n, seed, updates):
    """ftran/btran after rank-1 updates: cached forms + the eta loops of today."""
    rng = np.random.default_rng(seed)
    basis = matrix(n, seed, pivots=True)
    pfi = ProductFormInverse(basis)
    for _ in range(updates):
        w = pfi.ftran(rng.standard_normal(n))
        pos = int(np.argmax(np.abs(w)))
        pfi.update(w, pos)
    factors = pfi._factors
    b = rng.standard_normal(n)

    x = ref.lu_solve(pfi._factors, b)
    for eta in pfi._etas:
        xr = x[eta.pos]
        if xr != 0.0:
            x = x + eta.column * xr
            x[eta.pos] = eta.column[eta.pos] * xr
        else:
            x[eta.pos] = 0.0
    assert_same_bits(pfi.ftran(b), x)

    y = np.array(b, dtype=np.float64, copy=True)
    for eta in reversed(pfi._etas):
        y[eta.pos] = float(eta.column @ y)
    assert_same_bits(pfi.btran(b), ref.lu_solve(pfi._factors, y, transposed=True))
    assert pfi._factors is factors  # updates append etas, never refactor


@pytest.mark.parametrize("n", SIZES)
def test_permutation_is_the_swap_loop_and_a_copy(n):
    factors = lu_factor(matrix(n, seed=n, pivots=True))
    perm = factors.permutation()
    assert_same_bits(perm, ref.permutation(factors))
    perm[:] = -1  # the caller's copy; the cached vector is not exposed
    assert_same_bits(factors.permutation(), ref.permutation(factors))
    _, inverse = factors.row_order
    assert np.array_equal(inverse[factors.permutation()], np.arange(n))


class TestFormsAreBuiltOncePerFactorization:
    def test_forms_are_cached_on_the_factors_and_shared_by_later_solves(self):
        pfi = ProductFormInverse(matrix(9, seed=1, pivots=True))
        factors = pfi._factors
        assert "row_order" not in vars(factors)
        assert "transposed_triangles" not in vars(factors)
        pfi.ftran(np.ones(9))
        assert "transposed_triangles" not in vars(factors)  # plain solves never need it
        row_order = vars(factors)["row_order"]
        pfi.btran(np.ones(9))
        triangles = vars(factors)["transposed_triangles"]
        # Every later solve, across an update, reads the same forms.
        w = pfi.ftran(np.arange(1.0, 10.0))
        pfi.update(w, int(np.argmax(np.abs(w))))
        pfi.btran(np.ones(9))
        assert pfi._factors is factors
        assert factors.row_order is row_order
        assert factors.transposed_triangles is triangles

    def test_refactorize_starts_fresh_forms(self):
        pfi = ProductFormInverse(matrix(6, seed=2, pivots=True))
        pfi.btran(np.ones(6))
        old = pfi._factors
        pfi.refactorize(matrix(6, seed=3, pivots=True))
        assert pfi._factors is not old
        assert "transposed_triangles" not in vars(pfi._factors)

    def test_transposed_triangles_keep_the_strided_layout(self):
        # The rounding trap: a contiguous copy of Uᵀ would *not* give the
        # same bits (NumPy's dot takes another path on a strided row).
        factors = lu_factor(matrix(8, seed=0, pivots=True))
        ut, lt = factors.transposed_triangles
        for cached, built in ((ut, np.triu(factors.lu).T), (lt, np.tril(factors.lu, -1).T)):
            assert cached.strides == built.strides
            assert not cached.flags.c_contiguous
            assert np.array_equal(cached, built)


class TestErrorsAreUnchanged:
    def test_wrong_length_rhs(self):
        factors = lu_factor(np.eye(3))
        for transposed in (False, True):
            with pytest.raises(ShapeError):
                lu_solve(factors, np.ones(4), transposed=transposed)

    @pytest.mark.parametrize("transposed", [False, True])
    def test_zero_pivot_in_hand_built_factors(self, transposed):
        lu = np.array([[1.0, 2.0], [0.5, 0.0]])
        factors = LUFactors(lu=lu, piv=np.array([0, 1]))
        with pytest.raises(SingularMatrixError):
            lu_solve(factors, np.ones(2), transposed=transposed)
        with pytest.raises(SingularMatrixError):
            ref.lu_solve(factors, np.ones(2), transposed=transposed)
