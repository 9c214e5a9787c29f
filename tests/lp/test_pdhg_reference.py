"""The PDHG step limit, KKT check and ray checks, held to their
reference copies (``_reference_pdhg.py``) bit for bit, sign bit
included, and the sweep's projection to ``np.clip``.

Draws cover zero interaction (a ``+inf`` limit), frozen rows (zero
moves), signed zeros, infinite bounds and equality rows.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.lp import pdhg
from repro.lp.pdhg import RAY_TOLERANCE, _Saddle

from . import _reference_pdhg as ref

PROPERTY = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])

VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


def same(mine, theirs):
    assert type(mine) is type(theirs)
    mine, theirs = np.asarray(mine), np.asarray(theirs)
    assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
    assert mine.tobytes() == theirs.tobytes()


@st.composite
def moves(draw):
    k = draw(st.integers(1, 5))
    n = draw(st.integers(1, 9))
    m = draw(st.integers(1, 9))
    arr = lambda shape: draw(hnp.arrays(np.float64, shape, elements=VALUES))
    dx, dy, dkty = arr((k, n)), arr((k, m)), arr((k, n))
    # Frozen rows move nothing; some rows move without interaction.
    for i in range(k):
        kind = draw(st.sampled_from(["live", "live", "frozen", "no_interaction"]))
        if kind == "frozen":
            dx[i], dy[i], dkty[i] = 0.0, 0.0, 0.0
        elif kind == "no_interaction":
            dkty[i] = 0.0
    omega = draw(hnp.arrays(np.float64, k, elements=st.floats(1e-3, 1e3)))
    return omega, dx, dy, dkty


@PROPERTY
@given(moves())
def test_step_limit_is_the_reference(case):
    omega, dx, dy, dkty = case
    same(pdhg._step_limit(omega, dx, dy, dkty), ref._step_limit(omega, dx, dy, dkty))


@st.composite
def saddles(draw):
    m = draw(st.integers(1, 7))
    n = draw(st.integers(1, 7))
    arr = lambda shape: draw(hnp.arrays(np.float64, shape, elements=VALUES))
    lo = draw(hnp.arrays(np.float64, n, elements=st.sampled_from([-np.inf, -1.0, 0.0, -0.0])))
    hi = draw(hnp.arrays(np.float64, n, elements=st.sampled_from([np.inf, 1.0, 2.0, 0.0])))
    s = _Saddle(
        c_hat=arr(n), k=arr((m, n)), q=arr(m),
        num_eq=draw(st.integers(0, m)), lb=np.minimum(lo, hi), ub=hi,
    )
    return s, arr(n), arr(m)


@PROPERTY
@given(saddles())
def test_kkt_is_the_reference(case):
    s, x, y = case
    for mine, theirs in zip(pdhg._kkt(s, x, y), ref._kkt(s, x, y)):
        same(mine, theirs)


@PROPERTY
@given(saddles(), st.sampled_from([RAY_TOLERANCE, 1e-2, 0.5]))
def test_ray_checks_are_the_reference(case, tol):
    s, dx, dy = case
    assert bool(pdhg._check_primal_ray(s, dx, tol)) == bool(ref._check_primal_ray(s, dx, tol))
    assert bool(pdhg._check_dual_ray(s, dy, tol)) == bool(ref._check_dual_ray(s, dy, tol))


@PROPERTY
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(*(
    hnp.arrays(np.float64, n, elements=st.one_of(
        VALUES, st.sampled_from([np.inf, -np.inf, np.nan]))) for _ in range(3)))))
def test_sweep_projection_is_clip(case):
    v, lo, hi = case
    same(np.minimum(np.maximum(v, lo), hi), np.clip(v, lo, hi))
