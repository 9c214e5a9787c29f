"""Cut validity and separation tests.

The crucial property: every generated cut is satisfied by EVERY feasible
mixed-integer point (validity) and violated by the fractional LP optimum
(usefulness).  The hypothesis property draws small boxed MIPs, tightens
a node's box so that columns sit nonbasic at their upper bound, and
holds every GMI, cover and MIR cut of that node to every integer point
of the box that brute force finds feasible (three times the profile's
budget: 300 examples in tier-1, 1 500 under ``--hypothesis-profile=ci``).
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.lp.result import LPStatus
from repro.lp.warm import solve_warm_or_cold
from repro.mip.cuts.cover import cover_cuts
from repro.mip.cuts.gomory import gomory_mixed_integer_cuts, standard_integer_mask
from repro.mip.cuts.mir import mir_cuts
from repro.mip.cuts.pool import MAX_POOL, Cut, CutPool
from repro.mip.problem import MIPProblem
from repro.problems.knapsack import generate_knapsack


def all_feasible_binary_points(problem: MIPProblem):
    for bits in itertools.product([0.0, 1.0], repeat=problem.n):
        x = np.array(bits)
        if problem.is_feasible(x):
            yield x


def standard_point_from_original(sf, x, lp):
    """Lift an original-space feasible point into standard-form coords."""
    n_std = sf.n
    x_std = np.zeros(n_std)
    for i in range(len(x)):
        x_std[sf.pos_col[i]] = x[i] - sf.shift[i]
        if sf.neg_col[i] >= 0 and x[i] - sf.shift[i] < 0:
            x_std[sf.pos_col[i]] = 0.0
            x_std[sf.neg_col[i]] = -(x[i] - sf.shift[i])
    # Slacks make every row tight: s = b - A_struct @ x_struct.
    residual = sf.b - sf.a[:, : sf.num_structural] @ x_std[: sf.num_structural]
    x_std[sf.num_structural :] = residual
    return x_std


class TestGomoryCuts:
    @pytest.mark.parametrize("seed", range(6))
    def test_cuts_valid_for_all_integer_points(self, seed):
        p = generate_knapsack(8, seed=seed)
        sf = p.relaxation().to_standard_form()
        res = solve_warm_or_cold(sf, None).result
        assert res.status is LPStatus.OPTIMAL
        cuts = gomory_mixed_integer_cuts(p, sf, res.basis, res.at_upper, res.x_standard)
        if not cuts:
            pytest.skip("LP optimum already integral for this seed")
        for cut in cuts:
            # Violated by the LP optimum...
            assert float(cut.row @ res.x_standard) > cut.rhs + 1e-8
            # ...but satisfied by every feasible integer point.
            for x in all_feasible_binary_points(p):
                x_std = standard_point_from_original(sf, x, p)
                assert float(cut.row @ x_std) <= cut.rhs + 1e-6, (
                    f"cut {cut.source} kills feasible point {x}"
                )

    def test_integer_mask_structural_only(self):
        p = generate_knapsack(5, seed=0)
        sf = p.relaxation().to_standard_form()
        mask = standard_integer_mask(p, sf)
        assert mask[: sf.num_structural].all()
        assert not mask[sf.num_structural :].any()

    def test_no_cuts_from_integral_solution(self):
        p = MIPProblem(
            c=[1.0],
            integer=np.array([True]),
            a_ub=[[1.0]],
            b_ub=[2.0],
            ub=[5.0],
        )
        sf = p.relaxation().to_standard_form()
        res = solve_warm_or_cold(sf, None).result
        cuts = gomory_mixed_integer_cuts(p, sf, res.basis, res.at_upper, res.x_standard)
        assert cuts == []


#: Three times the profile's budget: a cut that mishandles an at-upper
#: column needs a fractional vertex with one in its row, about one
#: example in five.
PROPERTY = settings(
    max_examples=3 * settings().max_examples,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def boxed_nodes(draw):
    """``(problem, lb, ub)``: an all-integer MIP on small integer data —
    half of them 0/1 with nonnegative rows, where covers apply — and one
    node's box inside its bounds, some uppers pulled down and some lowers
    pushed up (so columns sit nonbasic at their upper bound)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = draw(st.integers(2, 5)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        lb, ub = np.zeros(n), np.ones(n)
        a_ub = rng.integers(0, 6, (m, n)).astype(float)
    else:
        lb = rng.integers(0, 2, n).astype(float)
        ub = lb + rng.integers(1, 4, n)
        a_ub = rng.integers(-1, 6, (m, n)).astype(float)
    b_ub = a_ub @ lb + rng.integers(0, 7, m)  # the all-lower corner is feasible
    problem = MIPProblem(
        c=rng.integers(1, 7, n).astype(float), integer=np.ones(n, dtype=bool),
        a_ub=a_ub, b_ub=b_ub, lb=lb, ub=ub,
    )
    node_lb, node_ub = lb.copy(), ub.copy()
    for j in range(n):
        width = int(ub[j] - lb[j])
        move = rng.choice(["none", "none", "ub_down", "lb_up"])
        if move == "ub_down":
            node_ub[j] = node_lb[j] + rng.integers(0, width)
        elif move == "lb_up":
            node_lb[j] = node_ub[j] - rng.integers(0, width)
    return problem, node_lb, node_ub


def feasible_box_points(problem, lb, ub):
    """Every integer point of ``[lb, ub]`` that satisfies the rows."""
    grid = np.array(
        list(itertools.product(*[np.arange(lo, hi + 1) for lo, hi in zip(lb, ub)])), float
    )
    return grid[np.all(grid @ problem.a_ub.T <= problem.b_ub + 1e-9, axis=1)]


@PROPERTY
@given(node=boxed_nodes())
def test_every_cut_keeps_every_integer_point_of_the_node_box(node):
    problem, lb, ub = node
    lp = problem.relaxation().with_bound_vectors(lb, ub)
    sf = lp.to_standard_form()
    res = solve_warm_or_cold(sf, None).result
    assume(res.status is LPStatus.OPTIMAL)
    x = sf.recover_x(res.x_standard)
    cuts = (
        gomory_mixed_integer_cuts(problem, sf, res.basis, res.at_upper, res.x_standard)
        + cover_cuts(problem, sf, x)
        + mir_cuts(problem, sf, x)
    )
    points = feasible_box_points(problem, lb, ub)
    lifted = np.zeros((len(points), sf.n))
    lifted[:, sf.pos_col] = points - sf.shift
    lifted[:, sf.num_structural :] = problem.b_ub - points @ problem.a_ub.T
    for cut in cuts:
        assert float(cut.row @ res.x_standard) > cut.rhs  # the LP point is cut off
        worst = (lifted @ cut.row - cut.rhs).max(initial=-np.inf)
        assert worst <= 1e-6 * (1.0 + abs(cut.rhs)), f"{cut.source} cut removes a point"


class TestCoverCuts:
    def test_separates_fractional_knapsack_point(self):
        # Knapsack 3x1 + 3x2 + 3x3 <= 5: cover {1,2} etc.
        p = MIPProblem(
            c=[1.0, 1.0, 1.0],
            integer=np.ones(3, dtype=bool),
            a_ub=[[3.0, 3.0, 3.0]],
            b_ub=[5.0],
            ub=np.ones(3),
        )
        sf = p.relaxation().to_standard_form()
        x = np.array([1.0, 0.9, 0.0])  # violates x1 + x2 <= 1
        cuts = cover_cuts(p, sf, x)
        assert cuts
        assert cuts[0].source == "cover"
        # Validity over all feasible binary points.
        for point in all_feasible_binary_points(p):
            x_std = standard_point_from_original(sf, point, p)
            for cut in cuts:
                assert float(cut.row @ x_std) <= cut.rhs + 1e-9

    def test_a_node_that_fixed_a_cover_member_at_one_still_cuts(self):
        # 2x0 + 4x1 + 3x2 <= 5 at a node with x1 = 1: x2 = 1/3 violates
        # the cover x1 + x2 <= 1, and so must the cut on the node's form,
        # whose column for x1 is x1 - 1.
        p = MIPProblem(
            c=[4.0, 1.0, 4.0], integer=np.ones(3, dtype=bool),
            a_ub=[[2.0, 4.0, 3.0]], b_ub=[5.0], ub=np.ones(3),
        )
        lp = p.relaxation().with_bound_vectors(np.array([0.0, 1.0, 0.0]), np.ones(3))
        sf = lp.to_standard_form()
        res = solve_warm_or_cold(sf, None).result
        (cut,) = cover_cuts(p, sf, sf.recover_x(res.x_standard))
        assert float(cut.row @ res.x_standard) - cut.rhs == pytest.approx(cut.violation)

    def test_no_cut_when_point_respects_covers(self):
        p = MIPProblem(
            c=[1.0, 1.0],
            integer=np.ones(2, dtype=bool),
            a_ub=[[3.0, 3.0]],
            b_ub=[5.0],
            ub=np.ones(2),
        )
        sf = p.relaxation().to_standard_form()
        cuts = cover_cuts(p, sf, np.array([0.5, 0.4]))
        assert cuts == []

    def test_skips_non_binary_rows(self):
        p = MIPProblem(
            c=[1.0, 1.0],
            integer=np.array([True, False]),  # second var continuous
            a_ub=[[3.0, 3.0]],
            b_ub=[5.0],
            ub=[1.0, 1.0],
        )
        sf = p.relaxation().to_standard_form()
        assert cover_cuts(p, sf, np.array([1.0, 0.9])) == []


class TestCutPool:
    def _cut(self, coeffs, rhs, violation, source="t"):
        return Cut(np.array(coeffs, dtype=float), rhs, violation, source)

    def test_dedupe_by_scaling(self):
        pool = CutPool()
        assert pool.add(self._cut([1.0, 2.0], 3.0, 0.5))
        assert not pool.add(self._cut([2.0, 4.0], 6.0, 0.7))  # same cut ×2
        assert len(pool) == 1

    def test_select_by_violation(self):
        pool = CutPool()
        pool.add(self._cut([1.0, 0.0], 1.0, 0.1, "a"))
        pool.add(self._cut([0.0, 1.0], 1.0, 0.9, "b"))
        pool.add(self._cut([1.0, 1.0], 1.0, 0.5, "c"))
        chosen = pool.select(2)
        assert [c.source for c in chosen] == ["b", "c"]
        assert len(pool) == 1

    def test_min_violation_filter(self):
        pool = CutPool()
        pool.add(self._cut([1.0], 1.0, 1e-9))
        assert pool.select(5) == []

    def test_pool_cap(self):
        pool = CutPool()
        for i in range(MAX_POOL):
            assert pool.add(self._cut([1.0, float(i)], 1.0, 0.1))
        assert not pool.add(self._cut([1.0, -1.0], 1.0, 0.1))
