"""Flip runs in the revised primal loop, held to the one-flip loop.

A pricing pass of :func:`repro.lp.simplex._iterate` walks the entering
candidates in its pricing rule's order and takes every bound flip the
one-flip loop (``_reference_primal.py``) would take one iteration at a
time, then the pivot that ends the run.  Both loops start from the
same primal-feasible basis (the basis a cold solve of the LP with every
cost zeroed leaves), and every exported :class:`~repro.lp.result.LPResult`
field must be that loop's bit for bit, under all three pricing rules, in
no more iterations.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.lp.pricing import PRICING_RULES, make_pricing
from repro.lp.problem import LinearProgram
from repro.lp.result import LPStatus
from repro.lp.simplex import FLIP_BLOCK, SimplexOptions, solve_standard_form
from repro.lp.warm import solve_warm_or_cold
from repro.problems.knapsack import generate_knapsack
from repro.problems.random_mip import generate_random_mip

from ._reference_primal import _select, one_flip_loop

#: Every field the primal loop exports, ``iterations`` aside.
EXPORTED = ("objective", "duals", "basis", "at_upper", "x_standard")

# The example budget comes from the Hypothesis profile (tests/conftest.py:
# 100 derandomised in tier-1, 500 under ``--hypothesis-profile=ci``).
PROPERTY = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _both(lp, pricing):
    """``(flip runs, one flip per iteration)`` answers for ``lp``, both
    loops from the same primal-feasible basis (None when ``lp`` is
    infeasible)."""
    sf = lp.to_standard_form()
    start = solve_warm_or_cold(replace(sf, c=np.zeros_like(sf.c)), None).result
    if start.status is not LPStatus.OPTIMAL:
        return None, None
    options = SimplexOptions(pricing=pricing)
    with one_flip_loop():
        ref = solve_standard_form(sf, start.basis, start.at_upper, options)
    return solve_standard_form(sf, start.basis, start.at_upper, options), ref


def _same(res, ref):
    assert res.status is ref.status
    for name in EXPORTED:
        mine, theirs = getattr(res, name), getattr(ref, name)
        if theirs is None:
            assert mine is None, name
        else:
            assert np.array_equal(mine, theirs, equal_nan=True), name
    assert res.iterations <= ref.iterations


@st.composite
def boxed_lps(draw):
    """A small LP, mostly boxed: ≤ rows with either sign of rhs (dual
    loop work before the primal starts when negative), sometimes equality
    rows, some columns free above.

    Integer data makes ties and degenerate vertices the common case;
    data in hundredths makes them the exception.
    """
    n = draw(st.integers(min_value=1, max_value=7))
    m_ub = draw(st.integers(min_value=0, max_value=5))
    m_eq = draw(st.integers(min_value=0, max_value=2))
    unit = 1.0 if draw(st.booleans()) else 0.01
    reach = 3 if unit == 1.0 else 300

    def vector(size, lo, hi):
        values = draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size))
        return np.array(values, dtype=float) * unit

    finite = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    finite |= draw(st.booleans())  # every column boxed, half the time
    kwargs = dict(c=vector(n, -reach, reach), ub=np.where(finite, vector(n, 0, reach), np.inf))
    if m_ub:
        kwargs["a_ub"] = vector(m_ub * n, -reach, reach).reshape(m_ub, n)
        kwargs["b_ub"] = vector(m_ub, -reach, 2 * reach)
    if m_eq:
        a_eq = vector(m_eq * n, -reach, reach).reshape(m_eq, n)
        kwargs["a_eq"] = a_eq
        kwargs["b_eq"] = a_eq @ np.minimum(vector(n, 0, reach), kwargs["ub"])
    return LinearProgram(**kwargs)


@PROPERTY
@given(lp=boxed_lps(), pricing=st.sampled_from(sorted(PRICING_RULES)))
def test_flip_runs_match_the_one_flip_loop(lp, pricing):
    """Every exported field bit for bit; iterations never more."""
    res, ref = _both(lp, pricing)
    assume(ref is not None)
    # A cycling solve stops at the iteration cap, which the two loops
    # reach at different points of the same path.
    assume(ref.status is not LPStatus.ITERATION_LIMIT)
    _same(res, ref)


def _relaxations():
    for seed in range(8):
        yield generate_knapsack(12 + 4 * seed, seed=seed).relaxation()
        yield generate_random_mip(10, 6, seed=seed, integer_fraction=1.0, bound=3.0).relaxation()


@pytest.mark.parametrize("pricing", sorted(PRICING_RULES))
def test_relaxations_take_their_flips_as_runs(pricing):
    """Knapsack and random-MIP relaxations, bit for bit, in fewer passes
    than the one-flip loop takes iterations."""
    passes = one_flip = 0
    for lp in _relaxations():
        res, ref = _both(lp, pricing)
        _same(res, ref)
        passes += res.iterations
        one_flip += ref.iterations
    assert passes < one_flip


def test_a_long_run_crosses_blocks():
    # 40 items with room for all of them, from the slack basis: the 40
    # items flip to their bounds in the order of their costs, the 39
    # after the first in three blocks, and nothing is left to enter.
    lp = LinearProgram(c=np.arange(1.0, 41.0), a_ub=np.ones((1, 40)), b_ub=[100.0],
                       ub=np.ones(40))
    res, ref = _both(lp, "dantzig")
    _same(res, ref)
    assert (res.iterations, ref.iterations) == (1, 40)
    assert res.at_upper[:40].all() and 2 * FLIP_BLOCK < 39 <= 3 * FLIP_BLOCK


@pytest.mark.parametrize("name", sorted(PRICING_RULES))
def test_select_is_the_first_of_the_order(name):
    rng = np.random.default_rng(0)
    for _ in range(50):
        rule, ref_rule = make_pricing(name), make_pricing(name)
        gain = rng.integers(-3, 4, 9).astype(float)  # ties are common
        eligible = (gain > 0) & (rng.random(9) < 0.8)
        order = rule.order(gain, eligible)
        assert sorted(order.tolist()) == np.flatnonzero(eligible).tolist()
        first = _select(ref_rule, gain, eligible)
        assert rule.select(gain, eligible) == first
        assert (int(order[0]) if order.size else None) == first
