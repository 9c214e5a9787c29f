"""The batching MIP/LP solve service.

:class:`SolveService` is the subsystem that turns the repo's batch
solvers into a *system* for the paper's §5.5 winning regime — a heavy
stream of small independent problems.  It accepts time-ordered solve
requests, answers duplicates from an LRU result cache (or coalesces them
onto an identical queued request), groups the rest into
shape-compatibility buckets, flushes each onto a worker pool of
simulated devices when it is full, when its oldest member has waited
``max_wait`` or as soon as a worker is free, and applies admission
control when the queue is full.

Everything runs in *simulated* time, driven by request arrival times:
``submit(problem, at=t)`` first processes every flush and request
timeout due before ``t``, then admits (or rejects) the new
request.  ``drain()`` / ``close()`` flush all partial batches.  The
whole pipeline is deterministic — the same request stream produces the
same responses and the same simulated-time totals.

Per-stage observability lands in one :class:`repro.metrics.Metrics`
instance: queue wait, batch assembly, device time, cache hits/misses,
coalesced duplicates, rejections, timeouts, and per-worker batch counts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro import obs
from repro.errors import ServiceClosed, ServiceError, ServiceSaturated
from repro.faults.injector import active as fault_active
from repro.faults.plan import SITE_WORKER
from repro.metrics import Metrics
from repro.serve.batching import BatchingPolicy, BatchQueue, BucketKey
from repro.lp.problem import LinearProgram
from repro.serve.cache import CACHE_LOOKUP_SECONDS, ResultCache
from repro.serve.parametric import ParametricCache
from repro.serve.request import (
    Outcome,
    Problem,
    SolveRequest,
    SolveResponse,
    prepare_request,
    respond,
)
from repro.serve.scheduler import WorkerPool

#: Entries in each of a service's result caches (exact and heuristic).
CACHE_CAPACITY = 1024


class FrontDoor:
    """Lifecycle a single-pool service and a cluster share verbatim.

    Subclasses define ``submit``/``drain`` in their own bodies
    (``perf/trace.py`` patches those by name in the class ``__dict__``).
    """

    #: Counter prefix (``"serve"`` / ``"cluster"``).
    scope = ""

    def __init__(self):
        self.metrics = Metrics()
        #: Simulated clock (max processed event time).
        self.now = 0.0
        self.closed = False
        self._next_id = 0
        self._responses: Dict[int, SolveResponse] = {}

    def _arrival(self, at: Optional[float]) -> float:
        """Arrival time of a new submission (``None`` = the clock now)."""
        if self.closed:
            raise ServiceClosed(f"submit() on a closed {type(self).__name__}")
        at = self.now if at is None else float(at)
        if at < self.now:
            raise ServiceError(
                f"arrivals must be non-decreasing: got {at:.6g} after {self.now:.6g}"
            )
        return at

    def close(self) -> List[SolveResponse]:
        """Stop admitting, drain everything owed, return all responses."""
        if not self.closed:
            self.closed = True
            self.metrics.inc(f"{self.scope}.closed")
            return self.drain()
        return self.results()

    def result(self, request_id: int) -> Optional[SolveResponse]:
        """Response for one request id (None while still in flight)."""
        return self._responses.get(request_id)

    def results(self) -> List[SolveResponse]:
        """All responses recorded so far, ordered by request id."""
        return [self._responses[rid] for rid in sorted(self._responses)]


class SolveService(FrontDoor):
    """Queueing + dynamic batching + caching front-end over a device group."""

    scope = "serve"

    def __init__(
        self,
        policy: Optional[BatchingPolicy] = None,
        num_workers: int = 2,
    ):
        super().__init__()
        self.policy = policy if policy is not None else BatchingPolicy()
        self.pool = WorkerPool(num_workers, self.metrics)
        self.cache = ResultCache(CACHE_CAPACITY)
        #: Heuristic-mode answers live in their own cache: a certified
        #: incumbent with a gap must never be replayed as an exact
        #: optimum (and vice versa the exact cache stays heuristic-free).
        self.heuristic_cache = ResultCache(CACHE_CAPACITY)
        #: Near-duplicate LP answering.
        self.parametric = ParametricCache()
        self.queue = BatchQueue(self.policy)
        #: cache key (fingerprint + mode channel) → queued primary
        #: request (coalescing target).
        self._primaries: Dict[str, SolveRequest] = {}
        #: primary request id → coalesced follower requests.
        self._followers: Dict[int, List[SolveRequest]] = {}

    # -- submission ------------------------------------------------------------

    def submit(
        self,
        problem: Union[Problem, SolveRequest],
        at: Optional[float] = None,
        timeout: Optional[float] = None,
        solve_deadline: Optional[float] = None,
        mode: str = "exact",
        gap_target: Optional[float] = None,
    ) -> int:
        """Admit one request arriving at simulated time ``at``.

        ``mode`` selects the quality-vs-latency contract (a
        :class:`repro.api.SolveMode` or its string value; non-exact
        modes are MIP-only).  ``gap_target`` is the relative-gap goal
        threaded into non-exact solves.  A front door that already ran
        :func:`repro.serve.request.prepare_request` passes its
        :class:`SolveRequest` in place of the problem (the keywords are
        then ignored); this service stamps its own arrival time,
        request id and trace id on a copy, and on a request it prepared
        itself in place.

        Returns the assigned request id.  Raises
        :class:`repro.errors.ServiceClosed` after :meth:`close` and
        :class:`repro.errors.ServiceSaturated` when admission control
        rejects the request.  Arrivals must be non-decreasing in time.
        """
        at = self._arrival(at)
        if isinstance(problem, SolveRequest):
            # The front door keeps its own: stamp a copy of its fields.
            request = object.__new__(SolveRequest)
            request.__dict__.update(problem.__dict__)
        else:
            request = prepare_request(problem, timeout, solve_deadline, mode, gap_target)
        self._pump(at)
        self.now = at

        rid = self._next_id
        self._next_id += 1
        request.arrival_time, request.request_id = at, rid
        request.trace_id = f"req-{rid:06d}"
        self.metrics.inc("serve.requests")

        # 1. Coalesce onto an identical queued request — same problem
        # *and* same mode channel only (an exact request must not ride
        # on a heuristic primary or vice versa).
        primary = self._primaries.get(request.cache_key)
        if primary is not None:
            self._followers[primary.request_id].append(request)
            self.metrics.inc("serve.coalesced")
            return rid

        # 2. Result cache.  Non-exact requests resolve on the heuristic
        # channel; heuristic_first may also settle for an exact answer
        # (strictly better than what it asked for), but heuristic_only
        # traffic never reads the exact cache and never writes it.
        entry = None
        if request.mode != "heuristic_only":
            entry = self.cache.get(request.fingerprint)
            if entry is not None:
                self.metrics.inc("serve.cache.hits")
        if entry is None and request.mode != "exact":
            entry = self.heuristic_cache.get(request.cache_key)
            if entry is not None:
                self.metrics.inc("serve.heuristic_hit")
        if entry is not None:
            self._record(entry.replay_for(request, CACHE_LOOKUP_SECONDS))
            return rid
        self.metrics.inc("serve.cache.misses")

        # 2b. Parametric near-duplicate: same constraint structure with
        # perturbed rhs/objective/bounds, answered by one warm
        # dual-simplex re-solve from the stored basis (certificate-
        # audited; a zero-pivot one is a "range" hit — see
        # repro.serve.parametric).
        if (
            isinstance(request.problem, LinearProgram)
            and request.solve_deadline is None
        ):
            response = self.parametric.try_answer(request)
            if response is not None:
                self.metrics.inc(
                    "serve.range_hit" if response.warm == "range" else "serve.warm_hit"
                )
                # The perturbed problem's exact fingerprint now resolves
                # from the plain result cache too.
                self.cache.put(request.fingerprint, response)
                self._record(response)
                return rid

        # 3. Admission control.
        if self.queue.depth >= self.policy.max_queue_depth:
            self.metrics.inc("serve.rejected")
            raise ServiceSaturated(self.queue.depth, self.policy.max_queue_depth)

        # 4. Enqueue; flush immediately if the bucket filled up.
        key = self.queue.push(request)
        self._primaries[request.cache_key] = request
        self._followers[rid] = []
        self.metrics.inc("serve.admitted")
        if self.queue.bucket_len(key) >= self.policy.max_batch_size:
            self._flush(key, self.now, trigger="size")
        elif self.pool.free_at <= self.now:
            # A queue behind a free worker is empty (``_pump`` keeps it
            # so): this request is the whole bucket and goes now.
            self._flush(key, self.now, trigger="idle")
        return rid

    def advance_to(self, at: float) -> None:
        """Advance the service clock to ``at`` without submitting.

        Processes every flush and request timeout due by ``at``,
        exactly as a ``submit(..., at=at)`` would, so an external driver
        (the cluster front door) can move all groups to a common point
        in simulated time — e.g. before a group kill or an autoscale
        decision.  Arrivals stay non-decreasing: ``at`` earlier than the
        service clock is a no-op.
        """
        at = float(at)
        if at <= self.now:
            return
        self._pump(at)
        self.now = max(self.now, at)

    # -- lifecycle -------------------------------------------------------------

    def drain(self) -> List[SolveResponse]:
        """Dispatch every queued request now (partial batches included).

        Graceful drain: deadline timers are not awaited; anything still
        queued is flushed at the current simulated time.  Returns all
        responses so far, ordered by request id.
        """
        self._pump(self.now)
        for key in self.queue.nonempty_keys():
            while self.queue.bucket_len(key):
                self._flush(key, self.now, trigger="drain")
        return self.results()

    # -- introspection ----------------------------------------------------------

    @property
    def makespan(self) -> float:
        """Simulated end-to-end time (slowest worker vs service clock)."""
        return max(self.now, self.pool.makespan)

    def stats(self) -> Dict:
        """Structured per-stage breakdown (counters, times, cache rates)."""
        out = self.metrics.to_dict()
        requests = self.metrics.count("serve.requests")
        deduped = self.metrics.count("serve.cache.hits") + self.metrics.count(
            "serve.coalesced"
        )
        out["derived"] = {
            "cache_hit_rate": self.cache.hit_rate,
            "heuristic_hit_rate": self.heuristic_cache.hit_rate,
            "dedup_rate": deduped / requests if requests else 0.0,
            "makespan": self.makespan,
            "parametric": {
                "range_hits": self.parametric.range_hits,
                "warm_hits": self.parametric.warm_hits,
                "misses": self.parametric.misses,
                "audit_failures": self.parametric.audit_failures,
            },
        }
        return out

    # -- event processing --------------------------------------------------------

    def _pump(self, until: float) -> None:
        """Process every flush / request timeout due by ``until``.

        A bucket flushes on its deadline or as soon as a worker frees
        up, whichever is first (:meth:`BatchQueue.next_deadline`), so on
        return every worker is busy past ``until`` or the queue is empty.
        Deterministic ordering: earliest event first; on ties, request
        timeouts fire before batch flushes (the request gives up just
        before its batch forms).
        """
        queue = self.queue
        while queue.depth:
            timeout_ev = queue.next_timeout()
            flush_ev = queue.next_deadline(self.pool.free_at)
            t_timeout = timeout_ev[0] if timeout_ev else float("inf")
            t_flush = flush_ev[0]
            if min(t_timeout, t_flush) > until:
                break
            if t_timeout <= t_flush:
                self.now = max(self.now, t_timeout)
                self._expire(timeout_ev[1], t_timeout)
            else:
                self.now = max(self.now, t_flush)
                self._flush(flush_ev[1], t_flush, trigger=flush_ev[2])
        self.now = max(self.now, until)

    def _expire(self, request: SolveRequest, when: float) -> None:
        """Time out one queued request (followers share its fate)."""
        self.queue.remove(request)
        followers = self._followers.pop(request.request_id, [])
        self._primaries.pop(request.cache_key, None)
        for req in [request] + followers:
            self.metrics.inc("serve.timeouts")
            self._record(
                respond(
                    req,
                    outcome=Outcome.TIMEOUT,
                    dispatch_time=when,
                    start_time=when,
                    completion_time=when,
                    coalesced=req is not request,
                )
            )

    def _flush(self, key: BucketKey, when: float, trigger: str) -> None:
        """Pop one batch from ``key`` and execute it on the worker pool.

        Under fault injection a dispatch round can lose members (worker
        crash, unrecoverable member fault); this loop re-dispatches
        exactly the lost members — hedged onto a different worker, after
        the plan's jittered backoff — until they complete or the retry
        budget is exhausted, at which point the stragglers fail and
        their injected faults are accounted as escaped.
        """
        batch = self.queue.pop_batch(key)
        if not batch:
            return
        self.metrics.inc(f"serve.flush.{trigger}")
        injector = fault_active()
        max_attempts = (
            injector.plan.retry.max_attempts if injector is not None else 1
        )
        pending = batch
        attempt = 1
        t = when
        avoid: Optional[int] = None
        unresolved = 0
        while True:
            out = self.pool.dispatch(key, pending, t, avoid=avoid)
            unresolved += out.pending_faults
            for request, response in zip(out.completed, out.responses):
                response.retries = attempt - 1
                self._finish(request, response)
            if not out.requeue:
                break
            self.metrics.inc("serve.requeued", len(out.requeue))
            if attempt >= max_attempts:
                for request in out.requeue:
                    self._finish(
                        request,
                        respond(
                            request,
                            outcome=Outcome.FAILED,
                            solver_status="worker_crash",
                            dispatch_time=when,
                            start_time=out.completion,
                            completion_time=out.completion,
                            worker=out.worker,
                            retries=attempt - 1,
                        ),
                    )
                if injector is not None:
                    injector.resolve_escaped(unresolved, site=SITE_WORKER)
                return
            delay = injector.backoff(attempt) if injector is not None else 0.0
            t = max(t, out.completion) + delay
            # The hedge: retry on any worker but the one that just died.
            avoid = out.worker if self.pool.size > 1 else None
            attempt += 1
            pending = out.requeue
        if unresolved and injector is not None:
            injector.resolve_recovered(unresolved, site=SITE_WORKER)

    def _finish(self, request: SolveRequest, response: SolveResponse) -> None:
        """Record one dispatched member's response (and its followers')."""
        self._primaries.pop(request.cache_key, None)
        if response.ok:
            if request.mode == "exact":
                self.cache.put(request.fingerprint, response)
            else:
                # Heuristic answers replay only on their own channel:
                # the exact result cache never sees them.
                self.heuristic_cache.put(request.cache_key, response)
            if response.lp_result is not None and isinstance(
                request.problem, LinearProgram
            ):
                if self.parametric.seed(
                    request, response.lp_result, response.completion_time
                ):
                    self.metrics.inc("serve.parametric.seeded")
        self._record(response)
        for follower in self._followers.pop(request.request_id, []):
            self._record(
                response.readdressed(follower, coalesced=True, lp_result=None)
            )

    def _record(self, response: SolveResponse) -> None:
        self._responses[response.request_id] = response
        if response.outcome is Outcome.OK:
            self.metrics.inc("serve.completed")
        elif response.outcome is Outcome.PARTIAL:
            self.metrics.inc("serve.partial")
        elif response.outcome is Outcome.FAILED:
            self.metrics.inc("serve.failed")
        self.metrics.add_time("time.serve.queue_wait", max(0.0, response.queue_wait))
        self.metrics.add_time("time.serve.assembly", max(0.0, response.assembly_wait))
        self.metrics.add_time("time.serve.latency", max(0.0, response.latency))
        self.metrics.observe("serve.latency", max(0.0, response.latency))
        self.metrics.observe("serve.queue_wait", max(0.0, response.queue_wait))
        if response.ok and not response.cached and not response.warm:
            self.metrics.observe("serve.device_time", max(0.0, response.device_time))
        if response.warm:
            self.metrics.observe("serve.warm_latency", max(0.0, response.latency))
        tracer = obs.active()
        if tracer is not None:
            self._trace_request(tracer, response)

    def _trace_request(self, tracer, response: SolveResponse) -> None:
        """Emit the per-request stage breakdown onto the unified timeline."""
        track = response.trace_id
        parent = tracer.sim_span(
            "request",
            response.arrival_time,
            max(0.0, response.latency),
            track,
            category="serve",
            outcome=response.outcome.value,
            cached=response.cached,
            coalesced=response.coalesced,
            warm=response.warm,
            batch_size=response.batch_size,
            worker=response.worker,
            trace_id=response.trace_id,
        )
        pid = parent.span_id
        if response.cached:
            tracer.sim_span(
                "cache", response.start_time,
                max(0.0, response.completion_time - response.start_time),
                track, category="serve", parent_id=pid,
            )
            return
        if response.warm:
            tracer.sim_span(
                "parametric", response.start_time,
                max(0.0, response.completion_time - response.start_time),
                track, category="serve", parent_id=pid,
                mode=response.warm,
            )
            return
        tracer.sim_span(
            "queue", response.arrival_time, max(0.0, response.queue_wait),
            track, category="serve", parent_id=pid,
        )
        if response.outcome is Outcome.TIMEOUT:
            return
        tracer.sim_span(
            "batch", response.dispatch_time, max(0.0, response.assembly_wait),
            track, category="serve", parent_id=pid,
        )
        tracer.sim_span(
            "solve", response.start_time, max(0.0, response.device_time),
            track, category="serve", parent_id=pid,
            worker=response.worker,
        )
