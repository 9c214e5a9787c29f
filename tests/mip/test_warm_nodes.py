"""Satellite: node-LP warm starts — counters, demotion, and equivalence.

The warm path must be an accounting-only change: identical optima and
node counts with warm starts on or off, less device time per node, zero audit
failures on healthy instances, and each node's
:class:`~repro.lp.warm.WarmStartState` demoted to its basis alone once
it leaves the most recently used (``WARM_STATES_KEPT``), so deep trees
cannot hoard inverses.
"""

import pytest

from repro.lp import warm as warm_module
from repro.lp.result import LPStatus
from repro.mip import solver as solver_module
from repro.mip.batch_solver import BatchedNodeSolver
from repro.mip.result import MIPStatus
from repro.mip.solver import BranchAndBoundSolver, SolverOptions
from repro.problems.knapsack import generate_knapsack, knapsack_dp_optimal
from repro.problems.random_mip import generate_random_mip
from repro.problems.tsp import generate_tsp


@pytest.fixture(scope="module")
def knapsack():
    return generate_knapsack(18, seed=3, correlation="strong")


@pytest.fixture(scope="module")
def warm_cold(knapsack):
    warm = BranchAndBoundSolver(
        knapsack, SolverOptions(warm_start=True)
    )
    warm_res = warm.solve()
    cold_res = BranchAndBoundSolver(
        knapsack, SolverOptions(warm_start=False)
    ).solve()
    return warm, warm_res, cold_res


def assert_demoted_and_bounded(make_solver, cold_res, monkeypatch):
    """At a bound of 2 live states: at most 2 nodes keep an inverse, some
    child starts from a demoted parent (warm, on its basis alone), and
    the optimum is the cold search's."""
    monkeypatch.setattr(solver_module, "WARM_STATES_KEPT", 2)
    demoted_starts = []
    warm_resolve = warm_module.warm_resolve

    def spy(sf, warm, options=None, hook=None, audit=True):
        outcome = warm_resolve(sf, warm, options, hook, audit)
        # A demoted state is a basis and a shape: no mask, no inverse
        # (a cold solve's state keeps its mask).  Probes don't audit.
        if audit and warm.inverse is None and warm.at_upper is None:
            assert outcome is None or not outcome.reused_factors
            demoted_starts.append(outcome is not None and outcome.warm_used)
        return outcome

    monkeypatch.setattr(warm_module, "warm_resolve", spy)
    res = make_solver(SolverOptions(warm_start=True, keep_tree=True)).solve()
    live = [n for n in res.tree.nodes() if n.warm is not None and n.warm.inverse is not None]
    assert len(live) <= 2
    assert any(demoted_starts)
    assert res.status is cold_res.status
    assert res.objective == cold_res.objective


class TestSerialWarmNodes:
    def test_same_answer_same_tree(self, knapsack, warm_cold):
        _, warm_res, cold_res = warm_cold
        optimal, _ = knapsack_dp_optimal(knapsack)
        assert warm_res.objective == pytest.approx(optimal)
        assert warm_res.status is cold_res.status
        assert warm_res.objective == cold_res.objective
        assert warm_res.best_bound == cold_res.best_bound
        assert warm_res.stats.nodes_processed == cold_res.stats.nodes_processed

    def test_warm_counters(self, warm_cold):
        _, warm_res, cold_res = warm_cold
        ws, cs = warm_res.stats, cold_res.stats
        assert ws.warm_starts > 0
        assert ws.warm_factor_reuses > 0
        assert ws.warm_audit_failures == 0
        # Cold runs never take the warm path.
        assert cs.warm_starts == 0
        assert cs.warm_pivots == 0
        assert cs.warm_factor_reuses == 0

    def test_pivot_reduction(self, knapsack):
        from benchmarks.bench_e15_warm import MIN_NODE_TIME_REDUCTION, _solve_both

        # E15's reuse claim at its floor: what the parent's basis and
        # inverse save a child is device time per node (a cold node's
        # slack start pivots no more than a warm child does).
        row = _solve_both(knapsack, node_limit=2000)
        assert row["node_time_reduction"] > MIN_NODE_TIME_REDUCTION

    def test_warm_states_are_demoted_past_the_bound(self, knapsack, warm_cold, monkeypatch):
        _, _, cold_res = warm_cold
        assert_demoted_and_bounded(
            lambda options: BranchAndBoundSolver(knapsack, options), cold_res, monkeypatch
        )

    def test_determinism(self, knapsack, warm_cold):
        _, warm_res, _ = warm_cold
        again = BranchAndBoundSolver(
            knapsack, SolverOptions(warm_start=True)
        ).solve()
        assert repr(again.objective) == repr(warm_res.objective)
        assert repr(again.best_bound) == repr(warm_res.best_bound)
        assert again.stats.nodes_processed == warm_res.stats.nodes_processed


class TestBatchedWarmNodes:
    def test_batched_matches_serial_with_warm_stats(self, knapsack, warm_cold):
        _, warm_res, _ = warm_cold
        solver = BatchedNodeSolver(knapsack, batch_size=8)
        res = solver.solve()
        assert res.objective == pytest.approx(warm_res.objective)
        assert res.stats.warm_starts > 0
        assert res.stats.warm_factor_reuses > 0
        assert res.stats.warm_audit_failures == 0

    def test_warm_states_are_demoted_past_the_bound(self, knapsack, warm_cold, monkeypatch):
        _, _, cold_res = warm_cold
        assert_demoted_and_bounded(
            lambda options: BatchedNodeSolver(knapsack, options, batch_size=8),
            cold_res,
            monkeypatch,
        )


class TestCutResolveAudit:
    def test_a_corrupted_cut_resolve_falls_back_cold(self, monkeypatch):
        """A cut round's warm answer is audited like a node LP's: one that
        fails the audit is replaced by a cold solve of the grown form and
        counted in ``warm_audit_failures``."""
        problem = generate_random_mip(12, 8, seed=2, integer_fraction=1.0)
        options = SolverOptions(cut_rounds=1)
        clean = BranchAndBoundSolver(problem, options).solve()
        root_rows = problem.relaxation().to_standard_form().m
        corrupted, cold_grown = [], []
        dual_simplex_resolve = warm_module.dual_simplex_resolve
        slack_start = warm_module.slack_start

        def corrupting(sf, *args, **kwargs):
            res = dual_simplex_resolve(sf, *args, **kwargs)
            if sf.m > root_rows and not corrupted and res.status is LPStatus.OPTIMAL:
                res.x_standard = res.x_standard + 1.0
                corrupted.append(sf)
            return res

        def cold_spy(sf):
            if corrupted and sf is corrupted[0]:
                cold_grown.append(sf)
            return slack_start(sf)

        monkeypatch.setattr(warm_module, "dual_simplex_resolve", corrupting)
        monkeypatch.setattr(warm_module, "slack_start", cold_spy)
        res = BranchAndBoundSolver(problem, options).solve()
        assert len(corrupted) == 1 and len(cold_grown) == 1
        assert clean.stats.warm_audit_failures == 0
        assert res.stats.warm_audit_failures == 1
        assert res.status is clean.status
        assert res.objective == pytest.approx(clean.objective)


class TestRefusedAttemptPivots:
    """A warm answer the audit refuses still ran its pivots: they count
    beside the cold solve's that replaced it, in the door's outcome and
    in ``MIPStats.lp_iterations``."""

    @staticmethod
    def refuse_once(monkeypatch) -> list:
        """Make the audit refuse the first warm answer that pivoted on its
        seed's inverse (a child's: a cold slack start inverts its basis);
        returns the refused answer's pivots, once it ran."""
        audit, refused = warm_module.audit_warm_lp, []

        def refuse(sf, result):
            if not refused and result.iterations > 0 and result.warm.reused_factors:
                refused.append(result.iterations)
                return False
            return audit(sf, result)

        monkeypatch.setattr(warm_module, "audit_warm_lp", refuse)
        return refused

    def test_the_door_counts_the_refused_attempt(self, knapsack, monkeypatch):
        from repro.lp.warm import WarmStartState, solve_warm_or_cold

        lp = knapsack.relaxation()
        root = lp.to_standard_form()
        answer = solve_warm_or_cold(root, None).result
        x = root.recover_x(answer.x_standard)
        var = int(knapsack.fractional_integers(x)[0])
        child = root.rebounded(lp.with_bounds(var, ub=float(int(x[var]))))
        refused = self.refuse_once(monkeypatch)
        outcome = solve_warm_or_cold(child, WarmStartState.from_result(root, answer))
        assert outcome.audit_failed and not outcome.warm_used
        assert outcome.pivots == refused[0] + outcome.result.iterations

    def test_lp_iterations_count_the_refused_attempt(self, knapsack, monkeypatch):
        from repro.lp import simplex as simplex_module

        ran = []
        dual, primal = warm_module.dual_simplex_resolve, simplex_module._solve_standard_form

        def dual_spy(*args, **kwargs):
            res = dual(*args, **kwargs)
            ran.append(res.iterations)
            return res

        def primal_spy(*args, **kwargs):
            res = primal(*args, **kwargs)
            ran.append(res.iterations)
            return res

        monkeypatch.setattr(warm_module, "dual_simplex_resolve", dual_spy)
        monkeypatch.setattr(simplex_module, "_solve_standard_form", primal_spy)
        refused = self.refuse_once(monkeypatch)
        # Pseudocost branching and no cut rounds: no probe or cut re-solve
        # runs, so every pivot that ran belongs to a node LP.
        res = BranchAndBoundSolver(knapsack, SolverOptions()).solve()
        assert res.stats.warm_audit_failures == 1 and refused[0] > 0
        assert res.stats.lp_iterations == sum(ran)


class TestEqualityRowWarmNodes:
    def test_a_tsp_starts_cold_once(self):
        """Every row has a slack, so the root answer of a TSP (equality
        rows, redundant MTZ rows) holds no artificial: every child starts
        warm from its parent's basis."""
        res = BranchAndBoundSolver(generate_tsp(6, seed=1), SolverOptions()).solve()
        assert res.status is MIPStatus.OPTIMAL and res.objective == -254.0
        assert res.stats.cold_starts == 1
        assert res.stats.warm_starts == res.stats.nodes_processed - 1
