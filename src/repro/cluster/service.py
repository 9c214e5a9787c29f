"""The sharded cluster front door.

:class:`ClusterService` runs N independent single-pool
:class:`repro.serve.SolveService` worker groups (each its own simulated
`DeviceGroup` pool) behind one submission surface.  Per request it:

1. advances every group to the arrival time and *harvests* responses
   whose completion time has passed (delivery is what feeds the SLO
   control signal and the shared cache tier);
2. applies SLO-aware admission — low priority classes are shed with an
   immediate :data:`repro.serve.request.Outcome.SHED` response when
   observed p95/p99 exceed the targets (:mod:`repro.cluster.admission`);
3. routes by the request's placement key over the configured
   policy (:mod:`repro.cluster.router`), probes the shared cache tier
   (:mod:`repro.cluster.cache`), and otherwise forwards the request to
   the owning group over a simulated :class:`repro.comm.NetworkSpec`
   hop.

Group membership is dynamic: :meth:`add_group` / :meth:`drain_group`
implement autoscaling (optionally driven by an
:class:`AutoscalePolicy`), and :meth:`kill_group` implements the chaos
fail-stop — delivered responses stay delivered, everything else is
re-routed to the survivors (never dropped, never double-answered) and
the dead shard's cache stops answering for the cluster.

Everything is simulated time and fully deterministic, like the
single-pool service underneath: the same request stream produces the
same responses, which is what lets ``repro.check`` pin a 1-shard
cluster bitwise-equal to a plain service.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import ServiceError, ServiceSaturated
from repro.faults.injector import active as faults_active
from repro.faults.plan import SITE_GROUP
from repro.comm.network import NetworkSpec, SHARED_MEMORY
from repro.lp.problem import ARRAYS
from repro.serve.batching import BatchingPolicy
from repro.serve.request import (
    Outcome,
    Problem,
    SolveRequest,
    SolveResponse,
    prepare_request,
    respond,
)
from repro.serve.service import FrontDoor, SolveService
from repro.cluster.admission import (
    PRIORITY_CLASSES,
    SLOAdmission,
    SLOPolicy,
    priority_rank,
)
from repro.cluster.cache import ClusterCache
from repro.cluster.router import make_router


def request_wire_bytes(problem: Problem) -> int:
    """Structural size of one solve request crossing the front-door hop."""
    total = 64  # envelope: ids, mode, deadlines
    for tag in ARRAYS + ("integer",):
        arr = getattr(problem, tag, None)
        if arr is not None:
            total += int(arr.nbytes)
    return total


@dataclass(frozen=True)
class AutoscalePolicy:
    """Reactive group scaling driven by mean outstanding load."""

    min_groups: int = 1
    max_groups: int = 8
    #: Scale up when mean outstanding requests per group reaches this.
    up_outstanding: float = 32.0
    #: Scale down when mean outstanding per group falls to this.
    down_outstanding: float = 1.0
    #: Simulated seconds between scaling actions (flap damping).
    cooldown: float = 0.05

    def __post_init__(self):
        if not 1 <= self.min_groups <= self.max_groups:
            raise ServiceError(
                f"need 1 <= min_groups <= max_groups, got "
                f"{self.min_groups}..{self.max_groups}"
            )
        if self.down_outstanding >= self.up_outstanding:
            raise ServiceError("down_outstanding must be < up_outstanding")
        if self.cooldown < 0:
            raise ServiceError("cooldown must be >= 0")


@dataclass
class _Assignment:
    """What the cluster adds to a request it admitted and still owes."""

    #: The prepared request, stamped with the *cluster's* arrival time,
    #: request id and trace id (each group stamps its own on a copy).
    request: SolveRequest
    priority: str
    gid: int
    local_rid: int = -1
    router_seconds: float = 0.0


class ClusterService(FrontDoor):
    """N solve-service shards behind one router + admission front door."""

    scope = "cluster"

    def __init__(
        self,
        groups: int = 2,
        router: str = "hash",
        policy: Optional[BatchingPolicy] = None,
        num_workers: int = 2,
        network: NetworkSpec = SHARED_MEMORY,
        slo: Optional[SLOPolicy] = None,
        autoscale: Optional[AutoscalePolicy] = None,
        spill_depth: Optional[int] = None,
    ):
        if groups < 1:
            raise ServiceError(f"need at least one group, got {groups}")
        super().__init__()
        self.policy = policy if policy is not None else BatchingPolicy()
        self.num_workers = num_workers
        self.network = network
        self.router = make_router(router)
        self.cache = ClusterCache(network=network)
        self.admission = SLOAdmission(slo) if slo is not None else None
        self.autoscale = autoscale
        #: Bounded-load spill: a group counts as overloaded once its
        #: outstanding backlog reaches ``spill_factor`` times the mean
        #: (never below the ``spill_depth`` floor), at which point the
        #: hash router diverts new *distinct* work to the least-loaded
        #: group.  Duplicates of in-flight problems are exempt — they
        #: follow their primary and coalesce for free.
        self.spill_depth = 8 if spill_depth is None else spill_depth
        self.spill_factor = 1.25
        self._next_gid = 0
        self._groups: Dict[int, SolveService] = {}
        #: cluster rid → live assignment (request the cluster still owes).
        self._assignments: Dict[int, _Assignment] = {}
        #: gid → {local rid → cluster rid} awaiting harvest.
        self._pending: Dict[int, Dict[int, int]] = {}
        #: coalescing channel → {gid → in-flight count}: which shard is
        #: already solving a given problem (duplicate-affinity routing).
        self._inflight: Dict[str, Dict[int, int]] = {}
        #: gid → how many channels of ``_inflight`` it holds (its load).
        self._channels: Dict[int, int] = {}
        self._last_scale = -float("inf")
        #: (sim time, action, gid, groups after) autoscale history.
        self.scale_events: List[tuple] = []
        for _ in range(groups):
            self.add_group(at=0.0)

    # -- membership ------------------------------------------------------------

    @property
    def group_ids(self) -> List[int]:
        """Live group ids, sorted."""
        return sorted(self._groups)

    def add_group(self, at: Optional[float] = None) -> int:
        """Spin up one more worker group and join it to the ring."""
        gid = self._next_gid
        self._next_gid += 1
        svc = SolveService(policy=self.policy, num_workers=self.num_workers)
        if at is not None:
            svc.advance_to(at)
        self._groups[gid] = svc
        self._pending[gid] = {}
        self._channels[gid] = 0
        self.router.join(gid)
        self.cache.attach_shard(gid, svc.cache)
        self.metrics.inc("cluster.group_adds")
        return gid

    def drain_group(self, gid: int, at: Optional[float] = None) -> None:
        """Gracefully retire one group: finish its work, then remove it.

        The group leaves the ring first (no new traffic), runs its queue
        dry, and every response it still owed is delivered before the
        group and its cache (the shard's replica) disappear.
        """
        svc = self._require_group(gid)
        if at is not None:
            svc.advance_to(at)
        self.router.leave(gid)
        svc.drain()
        self._harvest_group(gid, until=float("inf"))
        self.cache.drop_replica(gid)
        del self._groups[gid]
        del self._pending[gid]
        del self._channels[gid]
        self.metrics.inc("cluster.group_drains")

    def kill_group(self, gid: int, at: float) -> int:
        """Fail-stop one group at simulated time ``at``.

        Responses the group completed by ``at`` are already *delivered*
        and stay answered exactly once.  Everything else the group owed
        — queued, batching, or mid-solve — is re-routed to the surviving
        groups (re-solved from scratch; the dead group's partial work is
        gone).  The group's cache (the shard's replica) goes with it;
        the shared owner tier keeps the answers, which are still valid.

        Returns the number of re-routed requests.  Raises
        :class:`ServiceError` when this is the last live group.
        """
        svc = self._require_group(gid)
        if len(self._groups) < 2:
            raise ServiceError(
                f"cannot kill group {gid}: it is the last live group"
            )
        at = max(float(at), self.now)
        self.now = at
        # Deliver exactly what the group completed before it died.
        svc.advance_to(at)
        self._harvest_group(gid, until=at)
        self.router.leave(gid)
        orphans = sorted(
            self._pending[gid].values()
        )  # cluster rids, admission order
        del self._groups[gid]
        del self._pending[gid]
        self.cache.drop_replica(gid)
        self.metrics.inc("cluster.group_kills")
        for rid in orphans:
            self._inflight_dec(self._assignments[rid].request.cache_key, gid)
        del self._channels[gid]
        for rid in orphans:
            self._reroute(self._assignments[rid], at)
        return len(orphans)

    def _require_group(self, gid: int) -> SolveService:
        svc = self._groups.get(gid)
        if svc is None:
            raise ServiceError(f"no live group {gid}; live: {self.group_ids}")
        return svc

    def _forward(self, a: _Assignment, gid: int, at: float) -> None:
        """Send ``a``'s request over the front-door hop to group ``gid``.

        Raises :class:`repro.errors.ServiceSaturated` — with nothing
        recorded — when the group's own admission control refuses it.
        """
        svc = self._groups[gid]
        route_cost = self.network.message_time(request_wire_bytes(a.request.problem))
        a.local_rid = svc.submit(a.request, at=max(at + route_cost, svc.now))
        a.gid = gid
        a.router_seconds += route_cost
        rid = a.request.request_id
        self._assignments[rid] = a
        self._pending[gid][a.local_rid] = rid
        flights = self._inflight.setdefault(a.request.cache_key, {})
        held = flights.get(gid, 0)
        flights[gid] = held + 1
        if not held:
            self._channels[gid] += 1

    def _reroute(self, a: _Assignment, at: float) -> None:
        """Resubmit one orphaned request to a surviving group."""
        self.metrics.inc("cluster.rerouted")
        order = [
            self.router.route(a.request.placement_key, self._load, self._overloaded)
        ]
        order += [g for g in self.group_ids if g != order[0]]
        for gid in order:
            try:
                self._forward(a, gid, at)
            except ServiceSaturated:
                continue
            return
        # Every survivor is saturated: answer FAILED rather than drop.
        self.metrics.inc("cluster.reroute_failed")
        del self._assignments[a.request.request_id]
        self._deliver(
            a,
            respond(
                a.request,
                outcome=Outcome.FAILED,
                solver_status="cluster_overflow",
                dispatch_time=at,
                start_time=at,
                completion_time=at,
            ),
        )

    def _maybe_group_kill(self, at: float) -> None:
        """Consult the fault injector for a whole-group fail-stop.

        One ``cluster.group`` occurrence is counted per admission while
        more than one group is live (the last group is never killable,
        so it does not advance the counter).  When the site fires, the
        busiest group — deterministically, highest ``(load, gid)`` —
        dies at ``at``; its in-flight work is re-routed by
        :meth:`kill_group` and the fault is resolved as recovered.
        """
        injector = faults_active()
        if injector is None or len(self._groups) < 2:
            return
        if not injector.group_kill():
            return
        victim = max(self._groups, key=lambda g: (self._load(g), g))
        self.kill_group(victim, at=at)
        injector.resolve_recovered(1, site=SITE_GROUP)

    # -- submission ------------------------------------------------------------

    def submit(
        self,
        problem: Problem,
        at: Optional[float] = None,
        timeout: Optional[float] = None,
        solve_deadline: Optional[float] = None,
        mode: str = "exact",
        gap_target: Optional[float] = None,
        priority: str = "silver",
    ) -> int:
        """Admit one request at the front door; returns the cluster id.

        Mirrors :meth:`repro.serve.SolveService.submit`, adding the
        ``priority`` class (``gold``/``silver``/``bronze``) the SLO
        admission controller sheds by.  The request is validated before
        anything else happens: an unknown mode or priority class raises
        :class:`repro.errors.ServiceError` with no counter, request id
        or admission decision spent on it.  Raises
        :class:`repro.errors.ServiceSaturated` when the routed group
        rejects the request outright.
        """
        at = self._arrival(at)
        request = prepare_request(problem, timeout, solve_deadline, mode, gap_target)
        priority_rank(priority)  # raises on an unknown class
        self.now = at
        self._advance(at)
        if self.autoscale is not None:
            self._autoscale_step(at)
        self._maybe_group_kill(at)

        rid = self._next_id
        self._next_id += 1
        request.arrival_time = at
        request.request_id = rid
        request.trace_id = f"req-{rid:06d}"
        self.metrics.inc("cluster.requests")
        self.metrics.inc(f"cluster.offered.{priority}")

        # 1. SLO-aware admission: shed low classes under tail pressure.
        if self.admission is not None and not self.admission.admit(priority, at):
            self.metrics.inc("cluster.shed")
            self.metrics.inc(f"cluster.shed.{priority}")
            self._responses[rid] = respond(
                request,
                outcome=Outcome.SHED,
                solver_status="shed",
                dispatch_time=at,
                start_time=at,
                completion_time=at,
            )
            return rid

        # 2. Route, then probe the shared cache tier at the routed shard.
        # Duplicate affinity first: if some shard is already solving this
        # exact problem (same coalescing channel), follow it — the group
        # coalesces the duplicate for free, which no spill can beat.
        flights = self._inflight.get(request.cache_key)
        if flights:
            gid = min(flights)
            self.metrics.inc("cluster.affinity_hits")
        else:
            gid = self.router.route(
                request.placement_key, self._load, self._overloaded
            )
        a = _Assignment(request, priority, gid)
        if request.mode == "exact":
            entry, cost = self.cache.lookup(request.fingerprint, gid, at)
            if entry is not None:
                self.metrics.inc("cluster.cache_hits")
                self._deliver(a, entry.replay_for(request, cost))
                return rid

        # 3. Forward over the front-door network hop.
        try:
            self._forward(a, gid, at)
        except ServiceSaturated:
            self.metrics.inc("cluster.rejected")
            raise
        return rid

    # -- load signals ------------------------------------------------------------

    def _inflight_dec(self, chan: str, gid: int) -> None:
        flights = self._inflight[chan]
        flights[gid] -= 1
        if not flights[gid]:
            del flights[gid]
            self._channels[gid] -= 1
            if not flights:
                del self._inflight[chan]

    def _load(self, gid: int) -> float:
        """Distinct problems the cluster has in flight at ``gid``.

        Coalesced duplicates ride their primary for free, so load is
        counted per coalescing channel, not per request — a shard
        holding one hot problem with fifty followers is *idle* next to
        a shard holding three distinct solves.
        """
        return float(self._channels[gid])

    def _overloaded(self, gid: int) -> bool:
        """Bounded-load check on the *outstanding* backlog.

        Queue depth alone hides work already sitting on busy workers,
        so overload is judged on forwarded-but-undelivered requests,
        relative to the cluster-wide mean (consistent hashing with
        bounded loads: cap ≈ ``spill_factor`` × mean, floored at
        ``spill_depth`` so light traffic never spills at all).
        """
        n = len(self._groups)
        if n <= 1:
            return False
        cap = max(self.spill_depth, self.spill_factor * len(self._inflight) / n)
        return self._load(gid) >= cap

    def _autoscale_step(self, at: float) -> None:
        policy = self.autoscale
        if at - self._last_scale < policy.cooldown:
            return
        n = len(self._groups)
        mean_load = sum(self._load(g) for g in self._groups) / n
        if mean_load >= policy.up_outstanding and n < policy.max_groups:
            gid = self.add_group(at=at)
            self._last_scale = at
            self.scale_events.append((at, "add", gid, n + 1))
        elif mean_load <= policy.down_outstanding and n > policy.min_groups:
            gid = min(self._groups, key=lambda g: (self._load(g), g))
            self.drain_group(gid, at=at)
            self._last_scale = at
            self.scale_events.append((at, "drain", gid, n - 1))

    # -- harvest -----------------------------------------------------------------

    def _advance(self, at: float) -> None:
        for svc in self._groups.values():
            svc.advance_to(at)
        for gid in self.group_ids:
            self._harvest_group(gid, until=at)

    def _harvest_group(self, gid: int, until: float) -> None:
        """Deliver this group's responses completed by ``until``."""
        pending = self._pending[gid]
        if not pending:
            return
        svc = self._groups[gid]
        for local_rid in sorted(pending):
            response = svc.result(local_rid)
            if response is None or response.completion_time > until:
                continue
            rid = pending.pop(local_rid)
            a = self._assignments.pop(rid)
            self._inflight_dec(a.request.cache_key, gid)
            # The client's clock started at the cluster's arrival, not
            # at the group's (which is later by the front-door hop).
            self._deliver(a, response.readdressed(a.request))

    def _deliver(self, a: _Assignment, response: SolveResponse) -> None:
        """Record one answered request and feed every control loop.

        Each sample is clamped at zero as ``max(0.0, v)`` would clamp it
        (``-0.0`` and NaN read 0.0), written as a conditional.
        """
        request = a.request
        self._responses[request.request_id] = response
        metrics = self.metrics
        outcome = response.outcome
        ok = response.ok
        if ok:
            metrics.inc("cluster.completed")
            metrics.inc(f"cluster.completed.{a.priority}")
        elif outcome is Outcome.TIMEOUT:
            metrics.inc("cluster.timeouts")
        elif outcome is Outcome.FAILED:
            metrics.inc("cluster.failed")
        elif outcome is Outcome.PARTIAL:
            metrics.inc("cluster.partial")
        latency = response.completion_time - request.arrival_time
        latency = latency if latency > 0.0 else 0.0
        router = a.router_seconds
        queue_wait = response.queue_wait
        batch = response.assembly_wait
        metrics.observe("cluster.latency", latency)
        metrics.observe("cluster.router", router if router > 0.0 else 0.0)
        metrics.observe("cluster.queue_wait", queue_wait if queue_wait > 0.0 else 0.0)
        metrics.observe("cluster.batch", batch if batch > 0.0 else 0.0)
        fresh = ok and not response.cached
        if fresh and not response.warm:
            solve = response.device_time
            metrics.observe("cluster.solve", solve if solve > 0.0 else 0.0)
        if self.admission is not None and outcome is not Outcome.SHED:
            self.admission.observe(latency)
        if fresh and request.mode == "exact":
            self.cache.insert(request.fingerprint, response)

    # -- lifecycle ---------------------------------------------------------------

    def drain(self) -> List[SolveResponse]:
        """Run every group's queue dry and deliver everything owed."""
        for gid in self.group_ids:
            self._groups[gid].drain()
        for gid in self.group_ids:
            self._harvest_group(gid, until=float("inf"))
        return self.results()

    # -- introspection -----------------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Requests admitted and forwarded but not yet delivered."""
        return len(self._assignments)

    @property
    def makespan(self) -> float:
        """Simulated end-to-end time across the whole cluster."""
        spans = [svc.makespan for svc in self._groups.values()]
        return max([self.now] + spans)

    def percentile(self, name: str, q: float) -> float:
        """Exact percentile of one cluster histogram (see ``stats``)."""
        return self.metrics.percentile(name, q)

    def stats(self) -> Dict:
        """Cluster-tier breakdown: router, cache, admission, latencies."""
        tiers = {}
        for tier in ("router", "queue_wait", "batch", "solve", "latency"):
            hist = f"cluster.{tier}"
            tiers[tier] = {
                "p50": self.metrics.percentile(hist, 50.0),
                "p95": self.metrics.percentile(hist, 95.0),
                "p99": self.metrics.percentile(hist, 99.0),
            }
        shed_rates = {
            p: self.admission.shed_rate(p) if self.admission else 0.0
            for p in PRIORITY_CLASSES
        }
        out = self.metrics.to_dict()
        out["derived"] = {
            "groups": self.group_ids,
            "makespan": self.makespan,
            "outstanding": self.outstanding,
            "router": {
                "policy": self.router.name,
                "spills": getattr(self.router, "spills", 0),
            },
            "tiers": tiers,
            "cache": self.cache.stats(),
            "admission": self.admission.stats() if self.admission else None,
            "shed_rate": shed_rates,
            "scale_events": len(self.scale_events),
        }
        return out
