"""Worker pool: dispatches assembled batches onto a simulated device group.

Each worker is one member of a :class:`repro.device.group.DeviceGroup`.
Batches go to the least-loaded device (the one whose clock is furthest
behind), which keeps every device busy under load — the serving analogue
of keeping multiple streams occupied (§5.5).

Two execution paths, chosen by the compatibility class of the bucket a
batch was popped from:

- **lockstep** — same-shape inequality LPs run as one MAGMA-style
  batched kernel sequence via
  :func:`repro.lp.batch_simplex.solve_lp_batch_on_device`;
- **concurrent** — MIPs (each the one B&B driver, under the default
  ``SolverOptions``, over a width-``MIP_NODE_BATCH``
  :class:`repro.mip.batch_solver.BatchedRoundEngine`, reached through
  :func:`repro.api.solve`) and non-lockstep LPs run as
  concurrent per-member kernel streams; the batch completes
  at ``max(span, total work / max_concurrent_kernels)``, the same
  work-and-span occupancy model :meth:`Device.synchronize` uses.

Numerics are exact on both paths; only the cost accounting differs.
Every member, on either path, yields one :class:`repro.api.SolveReport`,
and :func:`_response` turns it into the member's
:class:`~repro.serve.request.SolveResponse` through the one status →
outcome ladder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro import obs
from repro.api import SolveOptions, SolveReport, solve
from repro.device.group import DeviceGroup
from repro.device.gpu import Device
from repro.device.spec import V100
from repro.errors import FaultError, SolverError
from repro.faults.injector import active as fault_active
from repro.guard.budget import DeadlineBudget, GuardContext, guarding
from repro.lp.batch_simplex import solve_lp_batch_on_device
from repro.lp.result import LPResult, LPStatus
from repro.metrics import Metrics
from repro.mip.problem import MIPProblem
from repro.serve.batching import BucketKey, lockstep_bucket
from repro.serve.request import Outcome, SolveRequest, SolveResponse, respond


@dataclass
class DispatchOutcome:
    """What one dispatch round produced (and what it lost).

    ``completed``/``responses`` are the members that got an answer,
    aligned pairwise.  ``requeue`` are the members in flight when the
    worker crashed (or whose solve died on an unrecoverable injected
    fault) — the service re-dispatches exactly these, hedging away from
    ``worker``.  ``pending_faults`` counts injected faults not yet
    resolved; the service resolves them recovered (requeue drained) or
    escaped (retry budget exhausted).
    """

    completed: List[SolveRequest] = field(default_factory=list)
    responses: List[SolveResponse] = field(default_factory=list)
    requeue: List[SolveRequest] = field(default_factory=list)
    worker: int = -1
    completion: float = 0.0
    pending_faults: int = 0


#: Round width of the B&B driver for a MIP member (``SolveOptions.mip_node_batch``).
MIP_NODE_BATCH = 16

#: Report statuses that answer a request outright, and the budget stops
#: that answer it in part (an incumbent and a certified bound).
_ANSWERED = frozenset({"optimal", "infeasible", "unbounded", "heuristic"})
_ANYTIME = frozenset({"node_limit", "time_limit", "iteration_limit"})

#: Strategy label of a lockstep member's report.  The fused batch keeps
#: no member iterate, so a budget stop there answers nothing.
_LOCKSTEP = "lockstep"


def _response(
    req: SolveRequest,
    report: SolveReport,
    dispatch_time: float,
    start: float,
    completion: float,
    batch_size: int,
    worker: int,
) -> SolveResponse:
    """``req``'s answer read off its member's report: the one outcome ladder."""
    status = report.status
    if status in _ANSWERED:
        outcome = Outcome.OK
    elif status in _ANYTIME and report.strategy != _LOCKSTEP:
        outcome = Outcome.PARTIAL
    else:
        outcome = Outcome.FAILED
    return respond(
        req,
        outcome=outcome,
        solver_status=status,
        objective=report.objective,
        x=report.x,
        best_bound=report.best_bound,
        gap=report.gap,
        lp_result=report.lp_result,
        dispatch_time=dispatch_time,
        start_time=start,
        completion_time=completion,
        batch_size=batch_size,
        worker=worker,
    )


class WorkerPool:
    """``num_workers`` V100s executing batches for the solve service."""

    def __init__(self, num_workers: int = 2, metrics: Optional[Metrics] = None):
        self.metrics = metrics if metrics is not None else Metrics()
        self.group = DeviceGroup(num_workers, spec=V100)
        for rank in range(self.group.size):
            self.group.device(rank).obs_track = f"worker{rank}"

    @property
    def size(self) -> int:
        """Number of workers."""
        return self.group.size

    @property
    def makespan(self) -> float:
        """Slowest worker's simulated clock."""
        return self.group.makespan

    @property
    def free_at(self) -> float:
        """Earliest simulated time a worker is free (the least-loaded clock)."""
        return min([device.clock.now for device in self.group.devices])

    def dispatch(
        self,
        key: BucketKey,
        batch: List[SolveRequest],
        when: float,
        avoid: Optional[int] = None,
    ) -> DispatchOutcome:
        """Execute one batch popped from bucket ``key`` on the best worker.

        The bucket holds the lockstep verdict (:func:`lockstep_bucket`).
        ``avoid`` excludes one rank from selection — the service's
        hedged re-dispatch after a crash sends the retry to a different
        worker when the pool has one.
        """
        rank = self._pick_worker(avoid)
        device = self.group.device(rank)
        start = max(when, device.clock.now)
        device.clock.advance_to(start)

        # Deadline-carrying members need their own guard context, so
        # they take the concurrent per-member path, never the fused one.
        lockstep = lockstep_bucket(key) and all(
            req.solve_deadline is None for req in batch
        )

        injector = fault_active()
        crash_at: Optional[int] = None
        if injector is not None:
            crash_at = injector.worker_crash(len(batch), lockstep)
            if crash_at is not None:
                self.metrics.inc("serve.worker_crashes")
                obs.event(
                    "fault.worker_crash", category="fault",
                    worker=rank, batch_size=len(batch), lost_from=crash_at,
                )

        pending_faults = 1 if crash_at is not None else 0
        if lockstep:
            completed = list(batch)
            requeue: List[SolveRequest] = []
            try:
                reports = self._run_lockstep(device, batch)
            except FaultError as exc:
                # The fused kernel sequence died: every member is lost.
                pending_faults += exc.fault_count
                completed, reports, requeue = [], [], list(batch)
            else:
                if crash_at is not None:
                    # The worker died after the run: answers are lost,
                    # the simulated time it burned is not.
                    completed, reports, requeue = [], [], list(batch)
            self.metrics.inc("serve.dispatch.lockstep")
        else:
            completed, reports, requeue, member_faults = self._run_concurrent(
                device, batch, crash_at
            )
            pending_faults += member_faults
            self.metrics.inc("serve.dispatch.concurrent")
        completion = device.clock.now

        tracer = obs.active()
        if tracer is not None:
            tracer.sim_span(
                "serve.batch", start, completion - start,
                device.obs_track, category="serve",
                batch_size=len(batch), worker=rank,
                path="lockstep" if lockstep else "concurrent",
                lost=len(requeue),
            )

        self.metrics.inc("serve.batches")
        self.metrics.inc("serve.batch_members", len(batch))
        self.metrics.inc(f"serve.worker{rank}.batches")
        self.metrics.add_time("time.serve.device", completion - start)

        responses = []
        for req, report in zip(completed, reports):
            responses.append(
                _response(req, report, when, start, completion, len(batch), rank)
            )
        return DispatchOutcome(
            completed=completed,
            responses=responses,
            requeue=requeue,
            worker=rank,
            completion=completion,
            pending_faults=pending_faults,
        )

    def _pick_worker(self, avoid: Optional[int] = None) -> int:
        """Least-loaded rank, excluding ``avoid`` when another exists."""
        ranks = list(range(self.group.size))
        candidates = [r for r in ranks if r != avoid] or ranks
        return min(candidates, key=lambda r: (self.group.device(r).clock.now, r))

    # -- execution paths ------------------------------------------------------

    def _run_lockstep(
        self, device: Device, batch: List[SolveRequest]
    ) -> List[SolveReport]:
        res = solve_lp_batch_on_device([req.problem for req in batch], device)
        out = []
        for t in range(len(batch)):
            status = res.statuses[t]
            objective = float(res.objectives[t])
            report = SolveReport(
                status=status.value,
                objective=objective,
                x=None,
                strategy=_LOCKSTEP,
                lp_iterations=res.iterations,
            )
            if status is LPStatus.OPTIMAL:
                report.x = res.x[t]
                report.best_bound = objective
                report.gap = 0.0
                if res.bases is not None:
                    # The lockstep engine exports its answer in the
                    # member's own standard-form indexing, so this result
                    # seeds the parametric re-solve cache (the seeder
                    # re-audits before trusting it).
                    report.lp_result = LPResult(
                        status=status,
                        objective=objective,
                        x=report.x,
                        duals=res.duals[t],
                        iterations=res.iterations,
                        basis=res.bases[t].copy(),
                        at_upper=res.at_upper[t],
                        x_standard=res.x_standard[t],
                    )
            out.append(report)
        return out

    def _run_concurrent(
        self,
        device: Device,
        batch: List[SolveRequest],
        crash_at: Optional[int] = None,
    ) -> Tuple[
        List[SolveRequest],
        List[SolveReport],
        List[SolveRequest],
        int,
    ]:
        """Members as concurrent streams: work-and-span completion model.

        ``crash_at`` marks the first member lost to a worker crash —
        members from that index on are requeued untouched.  A member
        whose own solve dies on an unrecoverable injected fault is also
        requeued (its wasted kernel time still charges the device).
        Returns ``(completed, reports, requeue, pending_faults)``.
        """
        completed: List[SolveRequest] = []
        out: List[SolveReport] = []
        requeue: List[SolveRequest] = []
        pending_faults = 0
        busy_times = []
        tracer = obs.active()
        base = device.clock.now
        limit = len(batch) if crash_at is None else crash_at
        for i, req in enumerate(batch):
            if i >= limit:
                requeue.append(req)
                continue
            scratch = Device(V100)
            if tracer is not None:
                # Align the scratch timeline with the batch start so the
                # member's kernel spans land at their real positions, and
                # attribute them to the executing worker's track.
                scratch.clock.advance_to(base)
                scratch.obs_track = device.obs_track
            member_start = scratch.clock.now
            try:
                report = self._solve_member(req, scratch)
            except FaultError as exc:
                pending_faults += exc.fault_count
                busy_times.append(scratch.clock.now - member_start)
                device.metrics.merge(scratch.metrics)
                requeue.append(req)
                continue
            except SolverError as exc:
                report = SolveReport(
                    status=type(exc).__name__,
                    objective=float("nan"),
                    x=None,
                    strategy=req.kind,
                )
            busy_times.append(scratch.clock.now - member_start)
            device.metrics.merge(scratch.metrics)
            completed.append(req)
            out.append(report)
        span = max(busy_times) if busy_times else 0.0
        work = sum(busy_times)
        elapsed = max(span, work / V100.max_concurrent_kernels)
        device.clock.advance(elapsed)
        return completed, out, requeue, pending_faults

    def _solve_member(self, req: SolveRequest, scratch: Device) -> SolveReport:
        """One member solve, under its deadline budget when it has one.

        The budget's clock is the scratch device's *simulated* clock, so
        expiry tracks metered kernel time, not host wall time — the
        member stops mid-search with an anytime answer once its charged
        device seconds exceed ``solve_deadline``.
        """
        if isinstance(req.problem, MIPProblem):
            options = SolveOptions(
                device=scratch,
                mip_node_batch=MIP_NODE_BATCH,
                mode=req.mode,
                gap_target=req.gap_target,
            )
        else:
            options = SolveOptions(device=scratch)
        if req.solve_deadline is None:
            return solve(req.problem, options)
        ctx = GuardContext(
            budgets=[
                DeadlineBudget(
                    req.solve_deadline,
                    clock=lambda: scratch.clock.now,
                    label="serve-sim",
                )
            ]
        )
        with guarding(ctx):
            report = solve(req.problem, options)
        if ctx.deadline_hit():
            self.metrics.inc("serve.deadline_hits")
        return report
