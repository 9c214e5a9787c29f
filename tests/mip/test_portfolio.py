"""Portfolio heuristics: certificates, determinism, the solve-mode API.

Covers the satellite contracts of the primal-heuristic portfolio:

- *property*: every incumbent the portfolio emits passes the
  exact-rational feasibility certificate (:mod:`repro.check`), for any
  generated instance — heuristics may miss solutions, never fake them;
- *determinism*: every run yields the same incumbent across repeat
  runs **and** across lockstep widths (``n_jobs``), so batch sizing is
  a pure performance knob;
- the :class:`repro.api.SolveMode` surface: option validation,
  ``heuristic_only`` reports with certified gaps, ``heuristic_first``
  seeding branch and bound, and the serving layer's separate heuristic
  cache/coalescing channel.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import SolveMode, SolveOptions, solve
from repro.check import certify_mip_solution
from repro.errors import ReproError, ServiceError
from repro.lp import warm as warm_module
from repro.lp.problem import LinearProgram
from repro.mip.portfolio import PortfolioOptions, run_portfolio
from repro.mip.problem import MIPProblem
from repro.mip.propagation import Propagator
from repro.guard.budget import DeadlineBudget, GuardContext, guarding
from repro.mip.result import MIPStatus
from repro.mip.solver import BranchAndBoundSolver, SolverOptions
from repro.problems.knapsack import generate_knapsack, knapsack_dp_optimal
from repro.problems.random_mip import generate_random_mip
from repro.serve.request import Outcome
from repro.serve.service import SolveService

from ..serve._busy import occupy_workers

SMALL = PortfolioOptions(
    restarts=8, n_jobs=4, fj_sweeps=40, lns_rounds=1, lns_node_limit=40
)


def integer_infeasible_mip() -> MIPProblem:
    """Feasible relaxation (x = 0.5), no integer point: 2x == 1, x binary."""
    return MIPProblem(
        c=np.array([1.0]),
        integer=np.array([True]),
        a_eq=np.array([[2.0]]),
        b_eq=np.array([1.0]),
        lb=np.array([0.0]),
        ub=np.array([1.0]),
    )


class TestIncumbentCertificates:
    @given(
        num_items=st.integers(min_value=6, max_value=14),
        seed=st.integers(min_value=0, max_value=10_000),
        corr=st.sampled_from(["uncorrelated", "weak", "strong"]),
    )
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_every_incumbent_passes_exact_certificate(self, num_items, seed, corr):
        problem = generate_knapsack(num_items, seed=seed, correlation=corr)
        result = run_portfolio(problem, SMALL)
        for inc in result.incumbents:
            assert inc.certified
            assert problem.is_feasible(inc.x)
            cert = certify_mip_solution(problem, inc.x, objective=inc.objective)
            assert cert.ok
        if result.best is not None and np.isfinite(result.dual_bound):
            # Certified gap is one-sided: incumbent never beats the bound.
            assert result.best.objective <= result.dual_bound + 1e-6

    def test_incumbents_reach_dp_optimum_neighborhood(self):
        problem = generate_knapsack(25, seed=7, correlation="weak")
        result = run_portfolio(problem, PortfolioOptions(restarts=16))
        assert result.best is not None
        optimum, _ = knapsack_dp_optimal(problem)
        assert result.best.objective <= optimum + 1e-9
        assert result.gap < 0.1

    def test_infeasible_integer_mip_yields_no_incumbent(self):
        result = run_portfolio(integer_infeasible_mip(), SMALL)
        assert result.best is None
        assert result.incumbents == []


class TestDeterminism:
    def test_same_seed_same_incumbents_across_runs(self):
        problem = generate_knapsack(30, seed=2, correlation="weak")
        opts = PortfolioOptions(restarts=16, n_jobs=8)
        first = run_portfolio(problem, opts)
        second = run_portfolio(problem, opts)
        assert first.best is not None and second.best is not None
        assert first.best.objective == second.best.objective
        np.testing.assert_array_equal(first.best.x, second.best.x)
        trail = lambda r: [(i.heuristic, i.member, i.objective) for i in r.incumbents]
        assert trail(first) == trail(second)

    @pytest.mark.parametrize("n_jobs", [1, 4, 16])
    def test_incumbent_invariant_under_lockstep_width(self, n_jobs):
        problem = generate_knapsack(30, seed=2, correlation="weak")
        reference = run_portfolio(
            problem, PortfolioOptions(restarts=16, n_jobs=8)
        )
        other = run_portfolio(
            problem, PortfolioOptions(restarts=16, n_jobs=n_jobs)
        )
        assert other.best.objective == reference.best.objective
        assert other.best.heuristic == reference.best.heuristic
        assert other.best.member == reference.best.member
        np.testing.assert_array_equal(other.best.x, reference.best.x)


class TestPivotAccounting:
    """Every pivot that ran is reported, and only once: the spies sit
    inside the one LP door (:func:`repro.lp.warm.solve_warm_or_cold`), on
    its cold solve and its audited warm re-solve, which every LP of the
    portfolio and of the tree (each LNS sub-search's too) goes through."""

    @staticmethod
    def count_pivots(monkeypatch) -> list:
        pivots = []
        real_cold = warm_module.solve_standard_form
        real_warm = warm_module.warm_resolve

        def cold(*args, **kwargs):
            res = real_cold(*args, **kwargs)
            pivots.append(res.iterations)
            return res

        def warm(*args, **kwargs):
            outcome = real_warm(*args, **kwargs)
            if outcome is not None:
                pivots.append(outcome.result.iterations)
            return outcome

        monkeypatch.setattr(warm_module, "solve_standard_form", cold)
        monkeypatch.setattr(warm_module, "warm_resolve", warm)
        return pivots

    def test_every_lp_pivot_is_reported(self, monkeypatch):
        # The root, polish, residual and dive LPs, warm or cold, and each
        # LNS sub-search's: their sum is the portfolio's count, and the
        # heuristic-only report's.
        pivots = self.count_pivots(monkeypatch)
        problem = generate_random_mip(12, 8, seed=11, bound=4.0)
        result = run_portfolio(problem, PortfolioOptions())
        assert result.lp_iterations == sum(pivots) > 0
        pivots.clear()
        report = solve(problem, SolveOptions(mode="heuristic_only"))
        assert report.lp_iterations == sum(pivots) > 0

    @pytest.mark.parametrize("strategy", ["direct", "hybrid"])
    def test_heuristic_first_counts_the_shared_root_once(self, monkeypatch, strategy):
        # The tree solves the root and hands it to the portfolio: its
        # pivots are counted at node 0 and nowhere else.
        pivots = self.count_pivots(monkeypatch)
        problem = generate_random_mip(12, 8, seed=11, bound=4.0)
        report = solve(
            problem,
            SolveOptions(
                strategy=strategy,
                mode="heuristic_first",
                solver=SolverOptions(node_limit=60),
            ),
        )
        assert report.lp_iterations == sum(pivots) > 0

    def test_a_search_stopped_before_node_0_counts_its_root(self, monkeypatch):
        # The deadline expires inside the portfolio: node 0 is never
        # processed, but its LP ran before the portfolio and is counted.
        clock = iter(range(1, 1_000_000))
        guard = GuardContext(
            budgets=[DeadlineBudget(10.0, clock=lambda: float(next(clock)))]
        )
        pivots = self.count_pivots(monkeypatch)
        problem = generate_random_mip(12, 8, seed=11, bound=4.0)
        with guarding(guard):
            result = BranchAndBoundSolver(
                problem, SolverOptions(portfolio=PortfolioOptions())
            ).solve()
        assert result.status is MIPStatus.TIME_LIMIT
        assert result.stats.nodes_processed == 0
        assert result.stats.lp_iterations == sum(pivots) > 0


class TestPropagation:
    def test_propagation_tightens_and_detects_infeasibility(self):
        # x0 + x1 <= 1 with x0 fixed to 1 forces x1 <= 0.
        problem = MIPProblem(
            c=np.array([1.0, 1.0]),
            integer=np.array([True, True]),
            a_ub=np.array([[1.0, 1.0]]),
            b_ub=np.array([1.0]),
            lb=np.array([0.0, 0.0]),
            ub=np.array([1.0, 1.0]),
        )
        propagate = Propagator(problem)
        lb = np.array([1.0, 0.0])
        ub = np.array([1.0, 1.0])
        new_lb, new_ub, feasible = propagate(lb, ub)
        assert feasible[0]
        assert new_ub[0, 1] == 0.0
        # Fixing both to 1 contradicts the row.
        _, _, feasible = propagate(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
        assert not feasible[0]


class TestSolveModeAPI:
    def test_mode_accepts_enum_and_string(self):
        assert SolveOptions(mode="heuristic_only").mode is SolveMode.HEURISTIC_ONLY
        assert SolveOptions(mode=SolveMode.EXACT).mode is SolveMode.EXACT

    def test_invalid_mode_and_gap_target_are_rejected(self):
        with pytest.raises(ReproError, match="valid modes"):
            SolveOptions(mode="bogus")
        with pytest.raises(ReproError, match="finite non-negative"):
            SolveOptions(mode="heuristic_only", gap_target=-0.5)
        with pytest.raises(ReproError, match="finite non-negative"):
            SolveOptions(mode="heuristic_only", gap_target=float("inf"))
        with pytest.raises(ReproError, match="heuristic_first"):
            SolveOptions(gap_target=0.1)  # exact mode

    def test_heuristic_only_without_gap_target_is_allowed(self):
        report = solve(
            generate_knapsack(15, seed=4),
            SolveOptions(mode="heuristic_only", portfolio=SMALL),
        )
        assert report.status == "heuristic"
        assert report.mode == "heuristic_only"

    def test_non_exact_mode_rejected_for_plain_lp(self):
        lp = LinearProgram(
            c=np.array([1.0]), a_ub=np.array([[1.0]]), b_ub=np.array([2.0])
        )
        with pytest.raises(ReproError, match="MIPs only"):
            solve(lp, SolveOptions(mode="heuristic_first"))

    def test_heuristic_only_report_carries_certified_gap(self):
        report = solve(
            generate_knapsack(20, seed=3),
            SolveOptions(mode="heuristic_only", gap_target=0.05),
        )
        assert report.status == "heuristic"
        assert np.isfinite(report.best_bound)
        assert np.isfinite(report.gap)
        summary = report.metrics["portfolio"]
        assert summary["incumbents"] >= 1
        assert summary["gap_target"] == 0.05
        assert isinstance(summary["gap_target_met"], bool)
        assert report.objective <= report.best_bound + 1e-6

    def test_heuristic_only_no_incumbent_status(self):
        report = solve(
            integer_infeasible_mip(),
            SolveOptions(mode="heuristic_only", portfolio=SMALL),
        )
        assert report.status == "no_incumbent"
        assert report.x is None

    def test_heuristic_first_seeds_branch_and_bound(self):
        problem = generate_knapsack(20, seed=3)
        report = solve(
            problem,
            SolveOptions(
                strategy="portfolio", mode="heuristic_first", gap_target=0.01
            ),
        )
        assert report.status == "optimal"
        assert report.mode == "heuristic_first"
        assert "portfolio" in report.metrics
        # The portfolio incumbent lands before any node is processed.
        assert report.result.stats.first_incumbent_nodes == 0
        assert report.result.stats.portfolio_incumbents >= 1

    def test_portfolio_strategy_registered_with_fallback(self):
        from repro.strategies import registry

        assert "portfolio" in registry.available_strategies()
        assert registry.fallback_for("portfolio") == "hybrid"


class TestBenchPayload:
    def test_tiny_corpus_payload_is_schema_valid(self, tmp_path):
        from benchmarks.bench_e16_portfolio import portfolio_bench_payload
        from repro.obs.bench import load_bench_json, write_bench_json

        problem = generate_knapsack(20, seed=3, correlation="strong")
        problem.name = "knap-tiny"
        payload = portfolio_bench_payload(
            corpus=[(problem, True)],
            node_limit=300,
            portfolio=SMALL,
            include_pathological=False,
        )
        path = tmp_path / "BENCH_portfolio.json"
        write_bench_json(path, payload)
        loaded = load_bench_json(path)
        assert loaded["bench"] == "e16_portfolio"
        (row,) = loaded["rows"]
        assert row["certified"]
        assert row["portfolio_first_incumbent_seconds"] > 0
        summary = loaded["summary"]
        assert summary["gated_instances"] == 1
        assert summary["geomean_speedup"] == row["speedup"]
        assert summary["all_certified"]


class TestServingModes:
    def test_heuristic_channel_is_separate(self):
        service = SolveService(num_workers=2)
        occupy_workers(service, 1.0)  # all three queue together
        problem = generate_knapsack(20, seed=3)
        h1 = service.submit(problem, at=0.0, mode="heuristic_only", gap_target=0.05)
        h2 = service.submit(problem, at=0.0, mode="heuristic_only", gap_target=0.05)
        exact = service.submit(problem, at=0.0)
        service.drain()
        # Same problem, different channels: the exact request neither
        # coalesces onto the heuristic primary nor reads its answer.
        assert service.result(h2).coalesced
        assert not service.result(exact).coalesced
        assert service.result(h1).mode == "heuristic_only"
        assert service.result(h1).solver_status == "heuristic"
        assert service.result(exact).mode == "exact"
        assert service.result(exact).solver_status == "optimal"
        assert np.isfinite(service.result(h1).gap)

        # Replays hit their own caches.
        h3 = service.submit(
            problem, at=service.now + 1.0, mode="heuristic_only", gap_target=0.05
        )
        e2 = service.submit(problem, at=service.now)
        service.close()
        assert service.result(h3).cached
        assert service.result(h3).mode == "heuristic_only"
        assert service.result(e2).cached
        assert service.result(e2).mode == "exact"
        assert service.metrics.count("serve.heuristic_hit") == 1

    def test_heuristic_only_never_writes_exact_cache(self):
        service = SolveService(num_workers=1)
        problem = generate_knapsack(15, seed=5)
        service.submit(problem, at=0.0, mode="heuristic_only")
        service.drain()
        assert len(service.cache) == 0
        assert len(service.heuristic_cache) == 1
        # A later exact request must dispatch a real solve.
        exact = service.submit(problem, at=service.now + 1.0)
        service.close()
        response = service.result(exact)
        assert not response.cached
        assert response.solver_status == "optimal"
        assert response.outcome is Outcome.OK

    def test_lp_rejects_heuristic_mode_at_admission(self):
        service = SolveService(num_workers=1)
        lp = LinearProgram(
            c=np.array([1.0]), a_ub=np.array([[1.0]]), b_ub=np.array([2.0])
        )
        with pytest.raises(ServiceError, match="MIPs only"):
            service.submit(lp, mode="heuristic_only")
        with pytest.raises(ServiceError, match="valid modes"):
            service.submit(generate_knapsack(6, seed=0), mode="fastish")
