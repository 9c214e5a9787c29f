"""Domain propagation is sound, and Jacobi reaches Gauss–Seidel's fixpoint.

:class:`repro.mip.propagation.Propagator` tightens a stack of boxes
through the rows; the tree prunes a child whose box it empties without
an LP, so it is refereed against HiGHS (``scipy.optimize.milp``) over
random small MIPs and random sub-boxes of them:

(a) every tightening is implied by the rows: the sub-box with that
    variable forced one step past its new bound (one unit for an
    integer, 1e-3 for a continuous variable) is MIP-infeasible, and so
    is every sub-box reported empty.  A box propagates to the same
    answer alone as in a stack beside others;
(b) on all-integer bounded instances, Jacobi run to its fixpoint reaches
    the box of the Gauss–Seidel loop it replaced (kept below as the
    oracle), and the same verdict.

The hypothesis budget is a fifth of the active profile's (20 examples
in tier-1; ``--hypothesis-profile=ci`` runs 5x that).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.lp.simplex import CostHook
from repro.mip import propagation
from repro.mip.problem import MIPProblem
from repro.mip.propagation import PROPAGATION_TOL, Propagator

PROPERTY = settings(
    max_examples=max(1, settings().max_examples // 5),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
#: How far past a continuous variable's new bound the referee looks.
CONTINUOUS_STEP = 1e-3
#: Passes that take every instance here to its fixpoint.
FIXPOINT_PASSES = 10_000


def random_mip(seed: int, all_integer: bool) -> MIPProblem:
    """A few rows over a planted point, some equalities; with mixed
    integers, some continuous variables unbounded above."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 7)), int(rng.integers(1, 5))
    eq = int(rng.integers(0, 2))
    a = rng.integers(-4, 5, size=(m + eq, n)).astype(np.float64)
    ub = rng.integers(1, 5, size=n).astype(np.float64)
    integer = np.ones(n, dtype=bool) if all_integer else rng.random(n) < 0.6
    x0 = np.where(integer, rng.integers(0, ub + 1), rng.random(n) * ub)
    if not all_integer:
        ub[~integer & (rng.random(n) < 0.4)] = np.inf
    b = a @ x0 + rng.integers(0, 3, size=m + eq) * (np.arange(m + eq) < m)
    return MIPProblem(
        c=np.ones(n),
        integer=integer,
        a_ub=a[:m],
        b_ub=b[:m],
        a_eq=a[m:] if eq else None,
        b_eq=b[m:] if eq else None,
        lb=np.zeros(n),
        ub=ub,
    )


def random_boxes(problem: MIPProblem, seed: int, k: int):
    """``k`` non-empty sub-boxes of the problem's box, integral on the
    integer variables, as ``(k, n)`` stacks."""
    rng = np.random.default_rng((seed, 1))
    top = np.where(np.isfinite(problem.ub), problem.ub, 6.0)
    lo = rng.random((k, problem.n)) * top
    hi = lo + rng.random((k, problem.n)) * (top - lo)
    lo = np.where(problem.integer, np.floor(lo), lo)
    hi = np.where(problem.integer, np.ceil(hi), hi)
    hi = np.where(np.isfinite(problem.ub) | (rng.random((k, problem.n)) < 0.5), hi, np.inf)
    return lo, hi


def highs_feasible(problem: MIPProblem, lb: np.ndarray, ub: np.ndarray) -> bool:
    """Does ``[lb, ub]`` hold a point of the MIP (HiGHS)?  A verdict short
    of feasible / infeasible is asked again without presolve, as the
    ``highs`` lane of :mod:`repro.check.differential` does."""
    constraints = [LinearConstraint(problem.a_ub, -np.inf, problem.b_ub)]
    if problem.a_eq is not None:
        constraints.append(LinearConstraint(problem.a_eq, problem.b_eq, problem.b_eq))
    kwargs = dict(
        constraints=constraints,
        integrality=problem.integer.astype(int),
        bounds=Bounds(lb, ub),
    )
    res = milp(np.zeros(problem.n), **kwargs)
    if res.status not in (0, 2):
        res = milp(np.zeros(problem.n), options={"presolve": False}, **kwargs)
    assert res.status in (0, 2), res.message
    return res.status == 0


def gauss_seidel(problem: MIPProblem, lb: np.ndarray, ub: np.ndarray, passes: int):
    """The row-by-row loop the Jacobi propagator replaced: each row's
    tightenings are seen by the rows after it within the same pass."""
    lb, ub = lb.astype(np.float64).copy(), ub.astype(np.float64).copy()
    rows = [(problem.a_ub[i], float(problem.b_ub[i])) for i in range(len(problem.b_ub))]
    if problem.a_eq is not None:
        for i in range(len(problem.b_eq)):
            rows.append((problem.a_eq[i], float(problem.b_eq[i])))
            rows.append((-problem.a_eq[i], -float(problem.b_eq[i])))
    tol = PROPAGATION_TOL
    for _ in range(passes):
        changed = False
        if np.any(lb > ub + tol):
            return lb, ub, False
        for a, b in rows:
            pos, neg = a > 0, a < 0
            slack = b - float(a[pos] @ lb[pos] + a[neg] @ ub[neg])
            if slack < -tol * (1.0 + abs(b)):
                return lb, ub, False
            for j in np.nonzero(a)[0]:
                if a[j] > 0:
                    new_ub = lb[j] + slack / a[j]
                    if problem.integer[j]:
                        new_ub = np.floor(new_ub + tol)
                    if new_ub < ub[j] - tol:
                        ub[j], changed = new_ub, True
                else:
                    new_lb = ub[j] + slack / a[j]
                    if problem.integer[j]:
                        new_lb = np.ceil(new_lb - tol)
                    if new_lb > lb[j] + tol:
                        lb[j], changed = new_lb, True
        if not changed:
            break
    return lb, ub, not np.any(lb > ub + tol)


@PROPERTY
@given(seed=st.integers(0, 2**16))
def test_every_tightening_and_every_empty_box_is_implied_by_the_rows(seed):
    problem = random_mip(seed, all_integer=False)
    lbs, ubs = random_boxes(problem, seed, k=3)
    propagate = Propagator(problem)
    new_lb, new_ub, feasible = propagate(lbs, ubs)
    for i in range(len(lbs)):
        alone = propagate(lbs[i], ubs[i])
        assert np.array_equal(alone[0][0], new_lb[i]) and np.array_equal(alone[1][0], new_ub[i])
        assert alone[2][0] == feasible[i]
        if not feasible[i]:
            assert not highs_feasible(problem, lbs[i], ubs[i])
            continue
        assert np.array_equal(np.isinf(new_lb[i]), np.isinf(lbs[i]))
        assert np.array_equal(np.isinf(new_ub[i]), np.isinf(ubs[i]))
        for j in range(problem.n):
            step = 1.0 if problem.integer[j] else CONTINUOUS_STEP
            for tightened, forced_lb, forced_ub in (
                (new_lb[i, j] > lbs[i, j], lbs[i, j], new_lb[i, j] - step),
                (new_ub[i, j] < ubs[i, j], new_ub[i, j] + step, ubs[i, j]),
            ):
                if not tightened or forced_lb > forced_ub:
                    continue
                lb, ub = lbs[i].copy(), ubs[i].copy()
                lb[j], ub[j] = forced_lb, forced_ub
                assert not highs_feasible(problem, lb, ub), (i, j)


@PROPERTY
@given(seed=st.integers(0, 2**16))
def test_jacobi_reaches_the_gauss_seidel_fixpoint(seed):
    problem = random_mip(seed, all_integer=True)
    lbs, ubs = random_boxes(problem, seed, k=3)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(propagation, "PROPAGATION_PASSES", FIXPOINT_PASSES)
        new_lb, new_ub, feasible = Propagator(problem)(lbs, ubs)
    for i in range(len(lbs)):
        lb, ub, ok = gauss_seidel(problem, lbs[i], ubs[i], FIXPOINT_PASSES)
        assert ok == feasible[i]
        if ok:
            assert np.array_equal(lb, new_lb[i]) and np.array_equal(ub, new_ub[i])


class PassCounter(CostHook):
    def __init__(self):
        self.passes = 0

    def on_propagation(self, k, m, n):
        self.passes += 1


def test_the_corpus_reaches_each_case():
    """The properties above are not vacuous: over these seeds some boxes
    tighten, some empty, and some calls take more than one pass."""
    tightened = emptied = deep = 0
    for seed in range(40):
        problem = random_mip(seed, all_integer=False)
        lbs, ubs = random_boxes(problem, seed, k=3)
        hook = PassCounter()
        new_lb, new_ub, feasible = Propagator(problem)(lbs, ubs, hook)
        emptied += int((~feasible).sum())
        tightened += int(((new_lb > lbs) | (new_ub < ubs))[feasible].any(axis=1).sum())
        deep += hook.passes > 2
    assert tightened > 10 and emptied > 10 and deep > 5


@pytest.mark.parametrize("passes, expected", [(1, 1.0), (2, 0.0)])
def test_a_pass_reads_the_box_it_started_from(monkeypatch, passes, expected):
    """x0 ≤ x1 and x1 ≤ 0 over binaries: Gauss–Seidel fixes both in its
    first pass (the second row's tightening reaches the first row), Jacobi
    needs a second pass for x0."""
    monkeypatch.setattr(propagation, "PROPAGATION_PASSES", passes)
    problem = MIPProblem(
        c=np.ones(2),
        integer=np.ones(2, dtype=bool),
        a_ub=np.array([[0.0, 1.0], [1.0, -1.0]]),
        b_ub=np.zeros(2),
        ub=np.ones(2),
    )
    _, ub, feasible = Propagator(problem)(np.zeros(2), np.ones(2))
    assert feasible[0] and ub[0, 1] == 0.0 and ub[0, 0] == expected
    _, gs_ub, _ = gauss_seidel(problem, np.zeros(2), np.ones(2), passes=1)
    assert list(gs_ub) == [0.0, 0.0]
