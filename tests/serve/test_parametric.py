"""Serve's parametric near-duplicate path: one warm re-solve per answer
(a range hit is the one that took zero pivots), audit fall-through, and
the structural fingerprint that gates it all.

Every parametric answer must match a fresh cold solve of the *perturbed*
problem — the near-duplicate detector may only change latency, never the
answer — and a request the state cannot certify falls through to the
normal dispatch path (a miss, not an error).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import solve_lp
from repro.lp.problem import LinearProgram
from repro.lp.result import LPStatus
from repro.lp import warm as warm_mod
from repro.lp.warm import warm_resolve
from repro.serve import parametric
from repro.serve import (
    BatchingPolicy,
    ParametricCache,
    SolveService,
    structure_fingerprint,
)
from repro.serve.request import prepare_request


def base_lp(seed=5, n=8, m=6):
    rng = np.random.default_rng(seed)
    a = np.abs(rng.normal(size=(m, n))) + 0.1
    return LinearProgram(
        c=rng.normal(size=n) + 1.0,
        a_ub=a,
        b_ub=np.abs(rng.normal(size=m)) * 5 + 2,
        lb=np.zeros(n),
        ub=np.full(n, np.inf),
    )


def perturbed(lp, scale):
    return LinearProgram(
        c=lp.c, a_ub=lp.a_ub, b_ub=np.asarray(lp.b_ub) * scale,
        lb=lp.lb, ub=lp.ub,
    )


#: Per-row rhs factors that move ``base_lp()`` off its optimal basis:
#: the warm re-solve takes 4 dual pivots.  (Halving every row does not:
#: the basis survives that joint move, 0 pivots.)
DEEP_MOVE = np.array([1.0, 1.0, 1.0, 1.0, 0.2, 1.0])


def make_service(**kwargs):
    return SolveService(
        policy=BatchingPolicy(max_batch_size=1, max_wait=0.0), **kwargs
    )


class TestStructureFingerprint:
    def test_rhs_and_objective_moves_share_structure(self):
        lp = base_lp()
        assert structure_fingerprint(lp) == structure_fingerprint(
            perturbed(lp, 1.3)
        )
        moved_c = LinearProgram(
            c=np.asarray(lp.c) + 1.0, a_ub=lp.a_ub, b_ub=lp.b_ub,
            lb=lp.lb, ub=lp.ub,
        )
        assert structure_fingerprint(lp) == structure_fingerprint(moved_c)

    def test_coefficient_change_differs(self):
        lp = base_lp()
        a2 = np.asarray(lp.a_ub).copy()
        a2[0, 0] += 0.5
        other = LinearProgram(c=lp.c, a_ub=a2, b_ub=lp.b_ub, lb=lp.lb, ub=lp.ub)
        assert structure_fingerprint(lp) != structure_fingerprint(other)

    def test_bound_finiteness_pattern_differs_but_values_do_not(self):
        lp = base_lp()
        finite_ub = LinearProgram(
            c=lp.c, a_ub=lp.a_ub, b_ub=lp.b_ub, lb=lp.lb,
            ub=np.full(len(lp.c), 10.0),
        )
        # Flipping inf→finite changes the standard-form layout: new key.
        assert structure_fingerprint(lp) != structure_fingerprint(finite_ub)
        # But moving a finite bound's *value* does not.
        moved = LinearProgram(
            c=lp.c, a_ub=lp.a_ub, b_ub=lp.b_ub, lb=lp.lb,
            ub=np.full(len(lp.c), 12.0),
        )
        assert structure_fingerprint(finite_ub) == structure_fingerprint(moved)


class TestServeParametricPath:
    def _run(self, scales, service=None):
        lp = base_lp()
        service = service or make_service()
        problems = [lp] + [perturbed(lp, s) for s in scales]
        for i, problem in enumerate(problems):
            service.submit(problem, at=float(i))
            service.drain()
        responses = service.close()
        return service, problems, responses

    def test_small_rhs_move_is_a_range_hit(self):
        service, problems, responses = self._run([1.001])
        assert responses[0].warm == ""
        assert responses[1].warm == "range"
        assert service.parametric.range_hits == 1
        reference = solve_lp(problems[1])
        assert responses[1].objective == pytest.approx(reference.objective)

    def test_joint_rhs_move_the_basis_survives_is_a_range_hit(self):
        # Halving every row leaves one-row-at-a-time sensitivity ranges,
        # but the basis stays optimal: the re-solve takes zero pivots.
        _, problems, responses = self._run([0.5])
        assert responses[1].warm == "range"
        cache = ParametricCache()
        first, second = (prepare_request(p) for p in problems)
        assert cache.seed(first, solve_lp(problems[0]), ready_time=0.0)
        assert cache.try_answer(second).warm == "range"
        reference = solve_lp(problems[1])
        assert responses[1].objective == pytest.approx(reference.objective)

    def test_large_rhs_move_is_a_warm_resolve(self):
        service, problems, responses = self._run([DEEP_MOVE])
        assert responses[1].warm == "resolve"
        assert service.parametric.warm_hits == 1
        reference = solve_lp(problems[1])
        assert reference.status is LPStatus.OPTIMAL
        assert responses[1].objective == pytest.approx(reference.objective)

    def test_metrics_and_stats_expose_hits(self):
        service, _, _ = self._run([1.001, DEEP_MOVE])
        counters = service.metrics.counters
        assert counters.get("serve.range_hit", 0) == 1
        assert counters.get("serve.warm_hit", 0) == 1
        assert counters.get("serve.parametric.seeded", 0) >= 1
        block = service.stats()["derived"]["parametric"]
        assert block["range_hits"] == 1 and block["warm_hits"] == 1
        assert block["audit_failures"] == 0

    def test_parametric_answer_is_causal(self):
        # The answer reuses a completed solve: it can never finish
        # before the solve that seeded it did.
        service, _, responses = self._run([1.001])
        assert responses[1].completion_time >= responses[0].completion_time
        # ...and it is far cheaper than the cold path that seeded it.
        assert responses[1].latency < responses[0].latency

    def test_exact_duplicate_prefers_result_cache(self):
        lp = base_lp()
        service = make_service()
        service.submit(lp, at=0.0)
        service.drain()
        service.submit(lp, at=1.0)
        responses = service.close()
        assert responses[1].cached and responses[1].warm == ""

    def test_warm_resolve_reseeds_for_the_next_duplicate(self):
        # After a warm re-solve the entry tracks the stream: a small
        # move around the *new* rhs is in-range again.
        service, problems, responses = self._run([DEEP_MOVE, DEEP_MOVE * 1.0005])
        assert responses[1].warm == "resolve"
        assert responses[2].warm == "range"
        reference = solve_lp(problems[2])
        assert responses[2].objective == pytest.approx(reference.objective)

    def test_different_structure_misses(self):
        lp = base_lp()
        other = base_lp(seed=6)
        service = make_service()
        service.submit(lp, at=0.0)
        service.drain()
        service.submit(other, at=1.0)
        responses = service.close()
        assert responses[1].warm == ""
        assert service.parametric.misses >= 1

    def test_deadline_requests_bypass_parametric(self):
        lp = base_lp()
        service = make_service()
        service.submit(lp, at=0.0)
        service.drain()
        service.submit(perturbed(lp, 1.001), at=1.0, solve_deadline=10.0)
        responses = service.close()
        assert responses[1].warm == ""
        assert service.parametric.range_hits == 0

    def test_capacity_zero_disables_the_path(self):
        service = make_service()
        service.parametric = ParametricCache(capacity=0)
        service, problems, responses = self._run([1.001], service=service)
        assert all(r.warm == "" for r in responses)
        reference = solve_lp(problems[1])
        assert responses[1].objective == pytest.approx(reference.objective)

    def test_audit_failure_falls_through_to_cold(self, monkeypatch):
        lp = base_lp()
        service = make_service()
        service.submit(lp, at=0.0)
        service.drain()
        # Fail the float KKT audit of every answer to the perturbed
        # problem, wherever it runs: the parametric answer counts one
        # audit failure and one miss, and the request falls through to
        # a correct cold solve (whose state the cache refuses too).
        target = perturbed(lp, 1.001).to_standard_form().b
        real = warm_mod.audit_warm_lp

        def audit(sf, result):
            return not np.array_equal(sf.b, target) and real(sf, result)

        monkeypatch.setattr(warm_mod, "audit_warm_lp", audit)
        monkeypatch.setattr(parametric, "audit_warm_lp", audit)
        service.submit(perturbed(lp, 1.001), at=1.0)
        responses = service.close()
        assert responses[1].warm == ""
        cache = service.parametric
        counts = (cache.audit_failures, cache.misses, cache.range_hits, cache.warm_hits)
        assert counts == (1, 2, 0, 0)
        assert len(cache) == 1
        reference = solve_lp(perturbed(lp, 1.001))
        assert responses[1].objective == pytest.approx(reference.objective)

    def test_near_duplicate_result_lands_in_exact_cache(self):
        # A parametric answer backfills the plain fingerprint cache, so
        # re-submitting the same perturbation is a plain cache hit.
        lp = base_lp()
        service = make_service()
        service.submit(lp, at=0.0)
        service.drain()
        service.submit(perturbed(lp, 1.001), at=1.0)
        service.drain()
        service.submit(perturbed(lp, 1.001), at=2.0)
        responses = service.close()
        assert responses[1].warm == "range"
        assert responses[2].cached
        # The replay carries the range answer's proof, not the entry
        # defaults (best_bound=inf, gap=inf).
        assert responses[2].best_bound == responses[1].best_bound
        assert responses[2].best_bound == responses[1].objective
        assert responses[2].gap == 0.0


class TestParametricCacheUnit:
    def test_seed_refuses_unusable_results(self):
        cache = ParametricCache(capacity=4)
        lp = base_lp()
        res = solve_lp(lp)
        assert res.status is LPStatus.OPTIMAL
        broken = solve_lp(lp)
        broken.basis = None
        assert not cache.seed(prepare_request(lp), broken, ready_time=0.0)
        assert cache.seed(prepare_request(lp), res, ready_time=0.0)

    def test_lru_bound(self):
        cache = ParametricCache(capacity=2)
        for seed in range(5):
            lp = base_lp(seed=seed)
            res = solve_lp(lp)
            if res.status is LPStatus.OPTIMAL:
                cache.seed(prepare_request(lp), res, ready_time=0.0)
        assert len(cache) <= 2


class TestOneParametricPath:
    """Every answer is a warm re-solve; ``range`` names the zero-pivot ones."""

    BASE = base_lp()

    @settings(deadline=None)
    @given(
        moves=st.lists(
            st.tuples(
                st.lists(
                    st.floats(min_value=0.1, max_value=2.0),
                    min_size=6, max_size=6,
                ),
                st.lists(
                    st.floats(min_value=-0.5, max_value=0.5),
                    min_size=8, max_size=8,
                ),
            ),
            min_size=1, max_size=4,
        )
    )
    def test_every_answer_matches_cold_and_range_means_zero_pivots(self, moves):
        base = self.BASE
        cache = ParametricCache(capacity=4)
        assert cache.seed(prepare_request(base), solve_lp(base), ready_time=0.0)
        pivots = []

        def counted(*args, **kwargs):
            outcome = warm_resolve(*args, **kwargs)
            pivots.append(None if outcome is None else outcome.result.iterations)
            return outcome

        with mock.patch.object(parametric, "warm_resolve", counted):
            for rows, shift in moves:
                problem = LinearProgram(
                    c=np.asarray(base.c) + np.asarray(shift),
                    a_ub=base.a_ub,
                    b_ub=np.asarray(base.b_ub) * np.asarray(rows),
                    lb=base.lb,
                    ub=base.ub,
                )
                answer = cache.try_answer(prepare_request(problem))
                if answer is None:
                    continue
                reference = solve_lp(problem)
                assert reference.status is LPStatus.OPTIMAL
                assert answer.objective == pytest.approx(
                    reference.objective, rel=1e-9, abs=1e-9
                )
                assert (answer.warm == "range") == (pivots[-1] == 0)
        assert cache.audit_failures == 0
