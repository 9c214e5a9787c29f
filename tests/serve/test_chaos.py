"""Satellite: serve-layer chaos — crashes lose nothing, duplicate nothing.

A worker crash mid-batch must requeue exactly the in-flight members:
every admitted request gets exactly one response, no response is
duplicated, and the result cache never stores a failed answer.
"""

import pytest

from repro.faults.injector import injecting
from repro.faults.plan import (
    SITE_WORKER,
    FaultPlan,
    RetryPolicy,
    ScheduledFault,
)
from repro.serve.request import Outcome
from repro.serve.scheduler import WorkerPool
from repro.serve.service import SolveService
from repro.serve.workload import lp_pool, mip_pool


def _submit_all(service, problems, spacing=1e-4):
    return [service.submit(p, at=i * spacing) for i, p in enumerate(problems)]


def _crash_plan(at=0, retries=4):
    return FaultPlan(
        seed=0,
        scheduled=(ScheduledFault(site=SITE_WORKER, at=at),),
        retry=RetryPolicy(max_attempts=retries),
    )


class TestCrashRequeue:
    def test_concurrent_crash_requeues_exactly_in_flight(self):
        """Dispatch a MIP batch directly; the crash splits it cleanly."""
        pool_problems = mip_pool(4, num_items=6, seed=0)
        service = SolveService(num_workers=2)
        with injecting(_crash_plan()) as injector:
            ids = _submit_all(service, pool_problems)
            responses = service.close()
            assert injector.clean
        assert sorted(r.request_id for r in responses) == sorted(ids)
        assert all(r.ok for r in responses)
        # The members redone after the crash record their retry round.
        assert any(r.retries > 0 for r in responses)

    def test_lockstep_crash_requeues_whole_batch(self):
        problems = lp_pool(4, num_items=6, seed=1)
        service = SolveService(num_workers=2)
        with injecting(_crash_plan()) as injector:
            ids = _submit_all(service, problems)
            responses = service.close()
            assert injector.clean
        assert sorted(r.request_id for r in responses) == sorted(ids)
        assert all(r.ok for r in responses)

    def test_no_response_duplicated(self):
        problems = mip_pool(6, num_items=6, seed=2)
        service = SolveService(num_workers=2)
        plan = FaultPlan(
            seed=3,
            rates={SITE_WORKER: 0.3},
            max_faults=4,
            retry=RetryPolicy(max_attempts=6),
        )
        with injecting(plan) as injector:
            ids = _submit_all(service, problems)
            responses = service.close()
            assert injector.balanced
        answered = [r.request_id for r in responses]
        assert len(answered) == len(set(answered)) == len(ids)

    def test_hedged_redispatch_avoids_crashed_worker(self):
        problems = mip_pool(2, num_items=6, seed=4)
        service = SolveService(num_workers=2)
        with injecting(_crash_plan()) as injector:
            _submit_all(service, problems)
            responses = service.close()
            assert injector.clean
        retried = [r for r in responses if r.retries > 0]
        assert retried
        crashed_worker = 0  # first dispatch goes to the least-loaded rank 0
        assert all(r.worker != crashed_worker for r in retried)


class TestRetryExhaustion:
    def test_exhausted_retries_fail_cleanly(self):
        """Every dispatch crashes: requests fail, faults are escaped."""
        problems = mip_pool(2, num_items=6, seed=5)
        service = SolveService(num_workers=2)
        plan = FaultPlan(
            seed=6,
            rates={SITE_WORKER: 1.0},
            retry=RetryPolicy(max_attempts=2),
        )
        with injecting(plan) as injector:
            ids = _submit_all(service, problems)
            responses = service.close()
            assert injector.balanced
            assert injector.counts()["escaped"] > 0
        assert sorted(r.request_id for r in responses) == sorted(ids)
        failed = [r for r in responses if r.outcome is Outcome.FAILED]
        assert failed
        assert all(r.solver_status == "worker_crash" for r in failed)

    def test_exhausted_retries_keep_the_requests_mode(self):
        problems = mip_pool(2, num_items=6, seed=5)
        service = SolveService(num_workers=2)
        plan = FaultPlan(
            seed=6, rates={SITE_WORKER: 1.0}, retry=RetryPolicy(max_attempts=2)
        )
        with injecting(plan):
            for i, problem in enumerate(problems):
                service.submit(problem, at=i * 1e-4, mode="heuristic_first")
            responses = service.close()
        failed = [r for r in responses if r.solver_status == "worker_crash"]
        assert failed
        assert all(r.mode == "heuristic_first" for r in failed)

    def test_cache_never_stores_failed_results(self):
        problems = mip_pool(2, num_items=6, seed=5)
        service = SolveService(num_workers=2)
        plan = FaultPlan(
            seed=6, rates={SITE_WORKER: 1.0}, retry=RetryPolicy(max_attempts=2)
        )
        with injecting(plan):
            _submit_all(service, problems)
            service.close()
        assert all(
            entry.outcome is Outcome.OK
            for entry in service.cache._entries.values()
        )

    def test_failed_member_not_served_to_followers_from_cache(self):
        """A post-crash duplicate must re-solve, not read a failed entry."""
        problem = mip_pool(1, num_items=6, seed=7)[0]
        plan = FaultPlan(
            seed=8, rates={SITE_WORKER: 1.0}, retry=RetryPolicy(max_attempts=1)
        )
        service = SolveService(num_workers=1)
        with injecting(plan):
            first = service.submit(problem, at=0.0)
            service.drain()
            assert service.result(first).outcome is Outcome.FAILED
        # Injection over: the same problem resubmitted must now succeed.
        again = service.submit(problem, at=service.now)
        service.drain()
        response = service.result(again)
        assert response.outcome is Outcome.OK
        assert not response.cached


class TestSchedulerDirect:
    def test_dispatch_outcome_partition(self):
        """completed + requeue is exactly the dispatched batch."""
        from repro.serve.batching import bucket_key
        from repro.serve.request import SolveRequest, fingerprint

        problems = mip_pool(4, num_items=6, seed=9)
        batch = [
            SolveRequest(
                problem=p,
                arrival_time=0.0,
                request_id=i,
                fingerprint=fingerprint(p),
            )
            for i, p in enumerate(problems)
        ]
        pool = WorkerPool(num_workers=2)
        with injecting(_crash_plan()) as injector:
            out = pool.dispatch(bucket_key(problems[0]), batch, when=0.0)
        ids = sorted(
            [r.request_id for r in out.completed]
            + [r.request_id for r in out.requeue]
        )
        assert ids == [0, 1, 2, 3]
        assert out.requeue  # the crash lost at least one member
        assert out.pending_faults >= 1
        assert len(out.responses) == len(out.completed)
