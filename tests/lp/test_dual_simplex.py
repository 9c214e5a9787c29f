"""Dual simplex warm-restart tests: the §5.2/§5.3 reuse engine."""

import numpy as np
import pytest

from repro.errors import LPError
from repro.lp.dual_simplex import WarmStartState, dual_simplex_resolve
from repro.lp.problem import LinearProgram
from repro.lp.result import LPStatus
from repro.lp.warm import solve_warm_or_cold


def start(sf, basis, at_upper=None):
    """A warm state on ``sf`` holding a basis (and at-upper mask) alone."""
    return WarmStartState(np.asarray(basis), (sf.m, sf.n), at_upper=at_upper)


def make_lp(seed, m=6, n=8):
    rng = np.random.default_rng(seed)
    return LinearProgram(
        c=rng.standard_normal(n) + 0.5,
        a_ub=rng.standard_normal((m, n)),
        b_ub=rng.random(m) * 4 + 1,
        ub=np.full(n, 10.0),
    )


class TestWarmRestart:
    @pytest.mark.parametrize("seed", range(8))
    def test_cut_row_reoptimization_matches_cold(self, seed):
        lp = make_lp(seed)
        sf = lp.to_standard_form()
        base = solve_warm_or_cold(sf, None).result
        assert base.status is LPStatus.OPTIMAL

        # A valid "cut": any row the optimum violates slightly.
        rng = np.random.default_rng(seed + 999)
        row = rng.standard_normal(sf.n)
        rhs = float(row @ base.x_standard) - 0.5  # cuts off the optimum
        grown = sf.with_appended_rows(row, rhs)

        bordered = np.concatenate([base.basis, [sf.n]])  # new slack basic
        warm = dual_simplex_resolve(
            grown, start(grown, bordered, np.append(base.at_upper, False))
        )
        cold = solve_warm_or_cold(grown, None).result
        assert warm.status == cold.status
        if cold.status is LPStatus.OPTIMAL:
            assert warm.objective == pytest.approx(cold.objective, abs=1e-6)

    @pytest.mark.parametrize("seed", range(8))
    def test_non_binding_row_is_free(self, seed):
        """Appending a slack row the optimum satisfies needs 0 pivots."""
        lp = make_lp(seed)
        sf = lp.to_standard_form()
        base = solve_warm_or_cold(sf, None).result
        row = np.zeros(sf.n)
        row[0] = 1.0
        rhs = float(base.x_standard[0]) + 100.0
        grown = sf.with_appended_rows(row, rhs)
        warm = dual_simplex_resolve(
            grown,
            start(grown, np.concatenate([base.basis, [sf.n]]), np.append(base.at_upper, False)),
        )
        assert warm.status is LPStatus.OPTIMAL
        assert warm.iterations == 0
        assert warm.objective == pytest.approx(base.objective, abs=1e-7)

    def test_infeasible_after_contradictory_cut(self):
        lp = LinearProgram(c=[1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[4.0])
        sf = lp.to_standard_form()
        base = solve_warm_or_cold(sf, None).result
        # x0 + x1 >= 10 contradicts x0 + x1 <= 4.
        row = np.zeros(sf.n)
        row[0] = -1.0
        row[1] = -1.0
        grown = sf.with_appended_rows(row, -10.0)
        warm = dual_simplex_resolve(grown, start(grown, np.concatenate([base.basis, [sf.n]])))
        assert warm.status is LPStatus.INFEASIBLE

    def test_chained_cuts(self):
        """Several successive cut rounds, each warm-started."""
        lp = make_lp(42)
        sf = lp.to_standard_form()
        res = solve_warm_or_cold(sf, None).result
        rng = np.random.default_rng(4242)
        for _ in range(4):
            row = rng.standard_normal(sf.n)
            rhs = float(row @ res.x_standard) - 0.2
            sf = sf.with_appended_rows(row, rhs)
            basis = np.concatenate([res.basis, [sf.n - 1]])
            res = dual_simplex_resolve(sf, start(sf, basis, np.append(res.at_upper, False)))
            if res.status is not LPStatus.OPTIMAL:
                break
            cold = solve_warm_or_cold(sf, None).result
            assert res.objective == pytest.approx(cold.objective, abs=1e-6)


class TestValidation:
    def test_wrong_basis_size(self):
        sf = make_lp(1).to_standard_form()
        with pytest.raises(LPError):
            dual_simplex_resolve(sf, start(sf, [0]))

    def test_out_of_range_basis(self):
        sf = make_lp(1).to_standard_form()
        bad = np.full(sf.m, sf.n + 5)
        with pytest.raises(LPError):
            dual_simplex_resolve(sf, start(sf, bad))

    def test_repeated_basis_columns(self):
        sf = make_lp(1).to_standard_form()
        bad = np.zeros(sf.m, dtype=np.int64)
        with pytest.raises(LPError):
            dual_simplex_resolve(sf, start(sf, bad))

    def test_singular_basis(self):
        lp = LinearProgram(
            c=[1.0, 1.0], a_ub=[[1.0, 1.0], [2.0, 2.0]], b_ub=[1.0, 2.0]
        )
        sf = lp.to_standard_form()
        # Columns 0 and 1 are linearly dependent rows-wise? Build a
        # deliberately singular basis of structural columns.
        with pytest.raises(LPError):
            dual_simplex_resolve(sf, start(sf, [0, 1]))

    def test_primal_optimal_basis_accepted(self):
        lp = make_lp(3)
        sf = lp.to_standard_form()
        base = solve_warm_or_cold(sf, None).result
        res = dual_simplex_resolve(sf, WarmStartState.from_result(sf, base))
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(base.objective, abs=1e-8)
        assert res.iterations == 0
