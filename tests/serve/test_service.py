"""End-to-end service semantics: caching, batching triggers, admission
control, drain-on-shutdown, correctness, and determinism."""

import numpy as np
import pytest

from repro import solve_lp
from repro.errors import (
    RequestTimeout,
    ServiceClosed,
    ServiceError,
    ServiceSaturated,
)
from repro.problems.knapsack import generate_knapsack, knapsack_dp_optimal
from repro.serve import (
    BatchingPolicy,
    Outcome,
    SolveService,
    lp_pool,
    mip_pool,
    replay,
    synthetic_stream,
)

from ._busy import occupy_workers

#: Workers are busy until this simulated time wherever a test builds a
#: queue: a free worker takes a request the moment it arrives.
BUSY = 1.0


def make_service(**kwargs):
    policy_kwargs = {
        k: kwargs.pop(k)
        for k in ("max_batch_size", "max_wait", "max_queue_depth")
        if k in kwargs
    }
    return SolveService(policy=BatchingPolicy(**policy_kwargs), **kwargs)


class TestCorrectness:
    def test_lp_batch_matches_direct_solve(self):
        pool = lp_pool(6, seed=11)
        service = make_service(max_batch_size=8)
        occupy_workers(service, BUSY)
        for i, problem in enumerate(pool):
            service.submit(problem, at=i * 1e-6)
        responses = service.close()
        assert len(responses) == 6
        for problem, response in zip(pool, responses):
            assert response.ok
            reference = solve_lp(problem)
            assert response.objective == pytest.approx(reference.objective)
            assert response.batch_size == 6

    def test_mip_batch_matches_dp_oracle(self):
        pool = mip_pool(3, num_items=8, seed=21)
        service = make_service(max_batch_size=4)
        for i, problem in enumerate(pool):
            service.submit(problem, at=i * 1e-6)
        responses = service.close()
        for problem, response in zip(pool, responses):
            assert response.ok and response.solver_status == "optimal"
            expected, _ = knapsack_dp_optimal(problem)
            assert response.objective == pytest.approx(expected)


class TestCacheAndDedup:
    def test_duplicate_after_completion_is_cache_hit(self):
        problem = lp_pool(1, seed=4)[0]
        service = make_service(max_batch_size=1)
        service.submit(problem, at=0.0)      # dispatched immediately
        service.submit(problem, at=1e-3)     # identical → cache
        responses = service.close()
        first, second = responses
        assert not first.cached and second.cached
        assert second.objective == pytest.approx(first.objective)
        # The device ran exactly one batch.
        assert service.metrics.count("serve.batches") == 1
        assert service.cache.hits == 1

    def test_duplicate_while_queued_is_coalesced(self):
        problem = lp_pool(1, seed=4)[0]
        service = make_service(max_batch_size=8)
        occupy_workers(service, BUSY)
        service.submit(problem, at=0.0)
        service.submit(problem, at=1e-6)     # primary still queued
        responses = service.close()
        first, second = responses
        assert second.coalesced and not second.cached
        assert second.objective == pytest.approx(first.objective)
        assert service.metrics.count("serve.batch_members") == 1
        assert service.metrics.count("serve.coalesced") == 1

    def test_cache_hit_waits_for_result_readiness(self):
        # A duplicate arriving before its twin's solve finishes must not
        # receive the answer earlier than the device produced it.
        problem = lp_pool(1, seed=4)[0]
        service = make_service(max_batch_size=1)
        service.submit(problem, at=0.0)
        ready = service.result(0).completion_time
        assert ready > 0.0
        service.submit(problem, at=ready / 10)
        duplicate = service.result(1)
        assert duplicate.cached
        assert duplicate.completion_time >= ready


class TestBatchingTriggers:
    def test_size_trigger_dispatches_full_batch(self):
        pool = lp_pool(4, seed=6)
        service = make_service(max_batch_size=4, max_wait=10.0)
        occupy_workers(service, BUSY)
        for i, problem in enumerate(pool):
            service.submit(problem, at=i * 1e-6)
        # Flushed on the 4th submit, before any drain.
        response = service.result(3)
        assert response is not None and response.batch_size == 4
        assert service.metrics.count("serve.flush.size") == 1

    def test_deadline_trigger_flushes_partial_batch(self):
        pool = lp_pool(3, seed=6)
        mip = mip_pool(1, num_items=8, seed=6)[0]
        service = make_service(max_batch_size=8, max_wait=1e-3)
        occupy_workers(service, BUSY)
        service.submit(pool[0], at=0.0)
        service.submit(pool[1], at=1e-5)
        # A later arrival in a *different* bucket pumps simulated time
        # past the LP bucket's deadline.
        service.submit(mip, at=5e-3)
        response = service.result(0)
        assert response is not None
        assert response.batch_size == 2
        assert response.dispatch_time == pytest.approx(1e-3)
        assert service.metrics.count("serve.flush.deadline") == 1

    def test_queue_wait_bounded_by_max_wait(self):
        pool = lp_pool(2, seed=8)
        mip = mip_pool(1, num_items=8, seed=8)[0]
        service = make_service(max_batch_size=64, max_wait=2e-3)
        service.submit(pool[0], at=0.0)
        service.submit(pool[1], at=1e-4)
        service.submit(mip, at=1.0)
        for rid in (0, 1):
            assert service.result(rid).queue_wait <= 2e-3 + 1e-12


class TestAdmissionControl:
    def test_saturation_raises_typed_error(self):
        pool = lp_pool(5, seed=9)
        service = make_service(max_batch_size=8, max_wait=10.0, max_queue_depth=4)
        occupy_workers(service, BUSY)
        for problem in pool[:4]:
            service.submit(problem, at=0.0)
        with pytest.raises(ServiceSaturated):
            service.submit(pool[4], at=0.0)
        assert service.metrics.count("serve.rejected") == 1
        # The queued work still completes on drain.
        responses = service.drain()
        assert len(responses) == 4 and all(r.ok for r in responses)

    def test_timeout_produces_typed_outcome(self):
        pool = lp_pool(1, seed=10)
        mip = mip_pool(1, num_items=8, seed=10)[0]
        service = make_service(max_batch_size=8, max_wait=1.0)
        occupy_workers(service, BUSY)
        service.submit(pool[0], at=0.0, timeout=1e-4)
        service.submit(mip, at=1e-2)  # pumps time past the timeout
        response = service.result(0)
        assert response.outcome is Outcome.TIMEOUT
        assert response.completion_time == pytest.approx(1e-4)
        with pytest.raises(RequestTimeout):
            response.raise_for_outcome()
        assert service.metrics.count("serve.timeouts") == 1

    def test_timeout_keeps_the_requests_mode(self):
        # A response with no answer still says which contract it was
        # asked under (its coalesced follower included).
        mip = mip_pool(1, num_items=8, seed=10)[0]
        service = make_service(max_batch_size=8, max_wait=1.0)
        occupy_workers(service, BUSY)
        service.submit(mip, at=0.0, timeout=1e-6, mode="heuristic_only")
        service.submit(mip, at=1e-7, timeout=1e-6, mode="heuristic_only")
        service.submit(lp_pool(1, seed=10)[0], at=1e-2)  # pumps past it
        expired = [service.result(0), service.result(1)]
        assert [r.outcome for r in expired] == [Outcome.TIMEOUT] * 2
        assert [r.mode for r in expired] == ["heuristic_only"] * 2

    def test_timeout_fires_before_deadline_flush_on_tie(self):
        pool = lp_pool(1, seed=10)
        mip = mip_pool(1, num_items=8, seed=10)[0]
        # timeout == max_wait: the request gives up, the flush finds an
        # empty bucket.
        service = make_service(max_batch_size=8, max_wait=1e-3)
        occupy_workers(service, BUSY)
        service.submit(pool[0], at=0.0, timeout=1e-3)
        service.submit(mip, at=1e-2)
        assert service.result(0).outcome is Outcome.TIMEOUT

    def test_timeout_behind_the_head_of_its_bucket(self):
        # The expiring request shares a bucket with an older one: the
        # queue must find it by identity, not by comparing problems.
        pool = lp_pool(2, seed=10)
        service = make_service(max_batch_size=8, max_wait=1.0)
        occupy_workers(service, BUSY)
        service.submit(pool[0], at=0.0)
        service.submit(pool[1], at=0.0, timeout=1e-4)
        service.submit(pool[0], at=1e-2)  # pumps time past the timeout
        assert service.result(1).outcome is Outcome.TIMEOUT
        assert all(r.ok for r in service.close() if r.request_id != 1)

    def test_arrivals_must_be_time_ordered(self):
        pool = lp_pool(1, seed=10)
        service = make_service()
        service.submit(pool[0], at=1.0)
        with pytest.raises(ServiceError):
            service.submit(pool[0], at=0.5)


class TestShutdown:
    def test_drain_flushes_partial_batches(self):
        pool = lp_pool(3, seed=12)
        service = make_service(max_batch_size=64, max_wait=10.0)
        occupy_workers(service, BUSY)
        for i, problem in enumerate(pool):
            service.submit(problem, at=i * 1e-6)
        assert service.queue.depth == 3
        responses = service.drain()
        assert len(responses) == 3 and all(r.ok for r in responses)
        assert service.queue.depth == 0
        assert service.metrics.count("serve.flush.drain") >= 1

    def test_close_then_submit_raises(self):
        pool = lp_pool(2, seed=12)
        service = make_service(max_batch_size=64)
        service.submit(pool[0], at=0.0)
        responses = service.close()
        assert len(responses) == 1 and responses[0].ok
        with pytest.raises(ServiceClosed):
            service.submit(pool[1], at=1.0)

    def test_close_is_idempotent(self):
        pool = lp_pool(1, seed=12)
        service = make_service(max_batch_size=64)
        service.submit(pool[0], at=0.0)
        first = service.close()
        second = service.close()
        assert [r.request_id for r in first] == [r.request_id for r in second]


class TestDeterminism:
    def test_same_stream_same_responses_and_times(self):
        pool = lp_pool(6, seed=2) + mip_pool(2, num_items=8, seed=2)
        stream = synthetic_stream(
            pool, 60, 2e-5, seed=7, burst_length=10, burst_gap=1e-4
        )

        def run():
            service = SolveService(
                policy=BatchingPolicy(max_batch_size=8, max_wait=5e-4)
            )
            responses, rejected = replay(service, stream, timeout=5e-3)
            signature = [
                (r.request_id, r.outcome.value, r.objective, r.completion_time)
                for r in responses
            ]
            return signature, rejected, service.makespan, service.metrics.to_dict()

        first, second = run(), run()
        assert first[0] == second[0]      # same responses
        assert first[1] == second[1]      # same rejections
        assert first[2] == second[2]      # same simulated makespan
        assert first[3] == second[3]      # same per-stage metrics


class TestMipMemberStatuses:
    """The serve MIP path is the one B&B driver: its statuses are the
    driver's, not a batched copy's."""

    @staticmethod
    def unbounded_mip():
        from repro.mip.problem import MIPProblem

        return MIPProblem(
            c=[1.0, 1.0],
            integer=np.array([True, False]),
            a_ub=[[1.0, -1.0]],
            b_ub=[1.0],
            lb=[0.0, 0.0],
            ub=[3.0, np.inf],
        )

    def test_unbounded_mip_is_never_infeasible(self):
        from repro.api import SolveOptions, solve
        from repro.device.gpu import Device
        from repro.device.spec import V100

        problem = self.unbounded_mip()
        assert solve(problem).status == "unbounded"
        batched = solve(problem, SolveOptions(device=Device(V100), mip_node_batch=4))
        assert batched.status == "unbounded"
        assert batched.strategy == "batched_node"

        service = make_service(max_batch_size=2)
        service.submit(problem, at=0.0)
        (response,) = service.close()
        assert response.outcome is Outcome.OK
        assert response.solver_status == "unbounded"

    def test_unrecoverable_node_lp_is_a_failed_response(self, monkeypatch):
        """Post-ladder NUMERICAL with no incumbent raises inside the
        member solve; the pool answers FAILED instead of letting the
        error escape ``WorkerPool.dispatch``."""
        from repro.lp.result import LPResult, LPStatus
        from repro.lp.warm import WarmSolveOutcome
        from repro.mip.batch_solver import BatchedRoundEngine
        from repro.mip.solver import BranchAndBoundSolver

        monkeypatch.setattr(
            BatchedRoundEngine,
            "solve_round",
            lambda self, members: [
                WarmSolveOutcome(LPResult(status=LPStatus.NUMERICAL)) for _ in members
            ],
        )
        # Identity ladder: the breakage survives escalation.
        monkeypatch.setattr(
            BranchAndBoundSolver,
            "_escalate_node",
            lambda self, sf, first: first,
        )
        service = make_service(max_batch_size=2)
        service.submit(generate_knapsack(8, seed=1), at=0.0)
        (response,) = service.close()
        assert response.outcome in (Outcome.FAILED, Outcome.PARTIAL)
        assert response.solver_status == "NumericalInstabilityError"


class TestMalformedFieldsAtTheFrontDoor:
    """A malformed timeout, solve deadline or gap target is refused at
    submit, on both front doors, before any id or counter is spent — so
    it can never wedge the service for the valid requests after it."""

    LP = lp_pool(2, seed=10)
    MIP = mip_pool(2, num_items=8, seed=3)

    @staticmethod
    def _service(kind):
        if kind == "serve":
            return make_service(max_batch_size=1, max_wait=0.0)
        from repro.cluster import ClusterService

        return ClusterService(groups=1)

    @pytest.mark.parametrize("kind", ["serve", "cluster"])
    @pytest.mark.parametrize(
        "pool,kwargs",
        [
            ("LP", {"timeout": "1"}),
            ("LP", {"timeout": True}),
            ("LP", {"timeout": -1.0}),
            ("LP", {"timeout": float("nan")}),
            ("LP", {"solve_deadline": "2"}),
            ("LP", {"solve_deadline": 0.0}),
            ("LP", {"solve_deadline": False}),
            ("LP", {"solve_deadline": float("nan")}),
            ("LP", {"gap_target": 0.1}),  # LPs solve exactly
            ("MIP", {"mode": "heuristic_first", "gap_target": -1.0}),
            ("MIP", {"mode": "heuristic_first", "gap_target": "0.1"}),
            ("MIP", {"mode": "heuristic_only", "gap_target": float("inf")}),
            ("MIP", {"mode": "exact", "gap_target": 0.1}),
        ],
    )
    def test_bad_field_raises_and_spends_nothing(self, kind, pool, kwargs):
        problems = getattr(self, pool)
        service = self._service(kind)
        assert service.submit(problems[0], at=0.0) == 0
        before = service.metrics.to_dict()
        with pytest.raises(ServiceError):
            service.submit(problems[1], at=1.0, **kwargs)
        assert service.metrics.to_dict() == before
        # The next valid request takes the next id and is answered.
        assert service.submit(problems[1], at=2.0) == 1
        responses = service.close()
        assert [r.request_id for r in responses] == [0, 1]
        assert all(r.ok for r in responses)

    @pytest.mark.parametrize("kind", ["serve", "cluster"])
    def test_well_formed_fields_are_accepted(self, kind):
        service = self._service(kind)
        service.submit(self.LP[0], at=0.0, timeout=0.0, solve_deadline=10.0)
        service.submit(self.MIP[0], at=0.0, mode="heuristic_first", gap_target=0)
        assert len(service.close()) == 2
