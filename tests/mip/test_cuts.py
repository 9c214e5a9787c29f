"""Cut validity and separation tests.

The crucial property: every generated cut is satisfied by EVERY feasible
mixed-integer point (validity) and violated by the fractional LP optimum
(usefulness).
"""

import itertools

import numpy as np
import pytest

from repro.lp.result import LPStatus
from repro.lp.simplex import solve_standard_form
from repro.mip.cuts.cover import cover_cuts
from repro.mip.cuts.gomory import gomory_mixed_integer_cuts, standard_integer_mask
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
        res = solve_standard_form(sf)
        assert res.status is LPStatus.OPTIMAL
        cuts = gomory_mixed_integer_cuts(p, sf, res.basis, res.x_standard)
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
        res = solve_standard_form(sf)
        cuts = gomory_mixed_integer_cuts(p, sf, res.basis, res.x_standard)
        assert cuts == []


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
