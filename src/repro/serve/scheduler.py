"""Worker pool: dispatches assembled batches onto a simulated device group.

Each worker is one member of a :class:`repro.device.group.DeviceGroup`.
Batches go to the least-loaded device (the one whose clock is furthest
behind), which keeps every device busy under load — the serving analogue
of keeping multiple streams occupied (§5.5).

Two execution paths, chosen by the batch's compatibility class:

- **lockstep** — same-shape inequality LPs run as one MAGMA-style
  batched kernel sequence via
  :func:`repro.lp.batch_simplex.solve_lp_batch_on_device`;
- **concurrent** — MIPs (each the one B&B driver over a width-
  ``MIP_NODE_BATCH`` :class:`repro.mip.batch_solver.BatchedRoundEngine`,
  reached through :func:`repro.api.solve`) and non-lockstep LPs run as
  concurrent per-member kernel streams; the batch completes
  at ``max(span, total work / max_concurrent_kernels)``, the same
  work-and-span occupancy model :meth:`Device.synchronize` uses.

Numerics are exact on both paths; only the cost accounting differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro import obs
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
from repro.serve.request import Outcome, SolveRequest, SolveResponse


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

    def dispatch(
        self,
        batch: List[SolveRequest],
        when: float,
        avoid: Optional[int] = None,
    ) -> DispatchOutcome:
        """Execute one compatibility-bucket batch on the best worker.

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
        lockstep = batch[0].kind == "lp" and all(
            req.kind == "lp" and req.solve_deadline is None for req in batch
        ) and self._lockstep_capable(batch)

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
                outcomes = self._run_lockstep(device, batch)
            except FaultError as exc:
                # The fused kernel sequence died: every member is lost.
                pending_faults += exc.fault_count
                completed, outcomes, requeue = [], [], list(batch)
            else:
                if crash_at is not None:
                    # The worker died after the run: answers are lost,
                    # the simulated time it burned is not.
                    completed, outcomes, requeue = [], [], list(batch)
            self.metrics.inc("serve.dispatch.lockstep")
        else:
            completed, outcomes, requeue, member_faults = self._run_concurrent(
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
        for req, (outcome, status, objective, x, bound, gap, lp_result) in zip(
            completed, outcomes
        ):
            responses.append(
                SolveResponse(
                    request_id=req.request_id,
                    fingerprint=req.fingerprint,
                    outcome=outcome,
                    solver_status=status,
                    objective=objective,
                    x=x,
                    best_bound=bound,
                    gap=gap,
                    mode=req.mode,
                    lp_result=lp_result,
                    arrival_time=req.arrival_time,
                    dispatch_time=when,
                    start_time=start,
                    completion_time=completion,
                    batch_size=len(batch),
                    worker=rank,
                    trace_id=req.trace_id,
                )
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

    @staticmethod
    def _lockstep_capable(batch: List[SolveRequest]) -> bool:
        # The bucketing layer routes non-lockstep LPs to "lp-solo"
        # buckets; this re-check keeps the scheduler safe standalone.
        from repro.lp.batch_simplex import lockstep_compatible

        return all(lockstep_compatible(req.problem) for req in batch)

    def _run_lockstep(
        self, device: Device, batch: List[SolveRequest]
    ) -> List[Tuple[Outcome, str, float, Optional[np.ndarray], float, float, object]]:
        res = solve_lp_batch_on_device([req.problem for req in batch], device)
        out = []
        for t in range(len(batch)):
            status = res.statuses[t]
            outcome = Outcome.OK if status.terminal else Outcome.FAILED
            x = res.x[t] if status is LPStatus.OPTIMAL else None
            objective = float(res.objectives[t])
            bound = objective if status is LPStatus.OPTIMAL else float("inf")
            gap = 0.0 if status is LPStatus.OPTIMAL else float("inf")
            lp_result = None
            if status is LPStatus.OPTIMAL and res.bases is not None:
                # The lockstep engine exports basis/duals/x_standard in
                # the member's own standard-form indexing, so this result
                # seeds the parametric re-solve cache (the seeder
                # re-audits before trusting it).
                lp_result = LPResult(
                    status=status,
                    objective=objective,
                    x=x,
                    duals=res.duals[t],
                    iterations=res.iterations,
                    basis=res.bases[t].copy(),
                    x_standard=res.x_standard[t],
                )
            out.append(
                (outcome, status.value, objective, x, bound, gap, lp_result)
            )
        return out

    def _run_concurrent(
        self,
        device: Device,
        batch: List[SolveRequest],
        crash_at: Optional[int] = None,
    ) -> Tuple[
        List[SolveRequest],
        List[tuple],
        List[SolveRequest],
        int,
    ]:
        """Members as concurrent streams: work-and-span completion model.

        ``crash_at`` marks the first member lost to a worker crash —
        members from that index on are requeued untouched.  A member
        whose own solve dies on an unrecoverable injected fault is also
        requeued (its wasted kernel time still charges the device).
        Returns ``(completed, outcomes, requeue, pending_faults)``.
        """
        completed: List[SolveRequest] = []
        out: List[tuple] = []
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
                result = self._solve_member(req, scratch)
            except FaultError as exc:
                pending_faults += exc.fault_count
                busy_times.append(scratch.clock.now - member_start)
                device.metrics.merge(scratch.metrics)
                requeue.append(req)
                continue
            except SolverError as exc:
                result = (
                    Outcome.FAILED, type(exc).__name__, float("nan"), None,
                    float("inf"), float("inf"), None,
                )
            busy_times.append(scratch.clock.now - member_start)
            device.metrics.merge(scratch.metrics)
            completed.append(req)
            out.append(result)
        span = max(busy_times) if busy_times else 0.0
        work = sum(busy_times)
        elapsed = max(span, work / V100.max_concurrent_kernels)
        device.clock.advance(elapsed)
        return completed, out, requeue, pending_faults

    def _solve_member(self, req: SolveRequest, scratch: Device):
        """One member solve, under its deadline budget when it has one.

        The budget's clock is the scratch device's *simulated* clock, so
        expiry tracks metered kernel time, not host wall time — the
        member stops mid-search with an anytime answer once its charged
        device seconds exceed ``solve_deadline``.
        """
        if isinstance(req.problem, MIPProblem):
            run = lambda: self._solve_mip(
                req.problem, scratch, mode=req.mode, gap_target=req.gap_target
            )
        else:
            run = lambda: self._solve_solo_lp(req.problem, scratch)
        if req.solve_deadline is None:
            return run()
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
            result = run()
        if ctx.deadline_hit():
            self.metrics.inc("serve.deadline_hits")
        return result

    def _solve_mip(
        self,
        problem: MIPProblem,
        scratch: Device,
        mode: str = "exact",
        gap_target: Optional[float] = None,
    ):
        from repro.api import SolveOptions, solve

        report = solve(
            problem,
            SolveOptions(
                device=scratch,
                mip_node_batch=MIP_NODE_BATCH,
                mode=mode,
                gap_target=gap_target,
            ),
        )
        if report.result is None:
            # heuristic_only: no tree search ran.  A certified incumbent
            # (or a root-relaxation infeasibility proof) is the answer
            # the client asked for; an empty portfolio is a failure.
            outcome = (
                Outcome.OK
                if report.status in ("heuristic", "infeasible")
                else Outcome.FAILED
            )
        else:
            status = report.result.status
            if status.terminal:
                outcome = Outcome.OK
            elif status.anytime:
                outcome = Outcome.PARTIAL
            else:
                outcome = Outcome.FAILED
        return (
            outcome, report.status, report.objective, report.x,
            report.best_bound, report.gap, None,
        )

    def _solve_solo_lp(self, problem, scratch: Device):
        from repro.api import SolveOptions, solve

        report = solve(problem, SolveOptions(device=scratch))
        status = report.lp_result.status
        if status.terminal:
            outcome = Outcome.OK
        elif status.anytime:
            outcome = Outcome.PARTIAL
        else:
            outcome = Outcome.FAILED
        bound = report.objective if status is LPStatus.OPTIMAL else float("inf")
        gap = 0.0 if status is LPStatus.OPTIMAL else float("inf")
        return (
            outcome, report.status, report.objective, report.x, bound, gap,
            report.lp_result,
        )
