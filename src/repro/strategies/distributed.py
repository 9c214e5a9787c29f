"""Distributed branch-and-bound over the supervisor–worker engine.

The ParaSCIP/UG layout of §2.3 combined with strategy 2: rank 0
supervises the node pool (ramp-up, dynamic load balancing,
checkpointing); each worker owns a GPU and evaluates one
branch-and-bound node per task — LP relaxation on its device, children
shipped back as new tasks.  Per-node compute time comes from a real
metered LP solve, so the scaling curves of experiment E8 reflect actual
LP costs, not synthetic task lengths.

Checkpoints are :class:`repro.mip.snapshot.SearchSnapshot`\\ s — the
same leaf boxes a paused tree yields — so any of them resumes with
:func:`repro.mip.snapshot.resume_from_snapshot`.  When a ``comm.rank``
fault drops a rank, the search restarts itself from the latest one
(UG's checkpoint/restart, §2.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro import obs
from repro.comm.network import SUMMIT_FAT_TREE
from repro.comm.supervisor import (
    Snapshot,
    SupervisorConfig,
    Task,
    TaskResult,
    _merge_incumbent,
    run_supervisor_worker,
)
from repro.device.gpu import Device
from repro.device.spec import V100
from repro.errors import FaultError, RankLostError
from repro.faults.injector import active
from repro.faults.plan import SITE_RANK
from repro.lp.result import LPStatus
from repro.lp.warm import solve_warm_or_cold
from repro.mip.problem import MIPProblem
from repro.mip.snapshot import SearchSnapshot
from repro.strategies.engine import DeviceCostHook

#: A distributable node: its bound box (lb, ub).
NodePayload = Tuple[np.ndarray, np.ndarray]

#: Node evaluations a distributed search may spend.
MAX_EVALUATIONS = 200_000
#: Rank-loss restarts a distributed search absorbs before giving up.
MAX_RANK_RESTARTS = 100


@dataclass
class DistributedSearchResult:
    """Outcome of a distributed branch-and-bound run."""

    objective: float
    makespan_seconds: float
    nodes_evaluated: int
    per_worker: List[int]
    #: Consistent snapshots in capture order, each valid for the whole search.
    snapshots: List[SearchSnapshot]
    messages: int
    comm_bytes: int
    #: Restarts after a lost rank (the counts above are the final run's).
    restarts: int


def _make_evaluate(problem: MIPProblem):
    """Node evaluator: one LP relaxation on a fresh per-call device meter.

    The device clock delta becomes the task's compute time; a fresh
    device per call keeps the meter independent of scheduling order (the
    upload of the resident matrix is excluded — it happens once per
    worker at ramp-up in the real system).
    """

    node_bytes = 2 * problem.n * 8 + 256

    def evaluate(payload: NodePayload, incumbent: Optional[float]) -> TaskResult:
        lb, ub = payload
        device = Device(V100)
        hook = DeviceCostHook(device, mode="dense")
        lp = problem.restricted(lb, ub).relaxation()
        sf = lp.to_standard_form()
        res = solve_warm_or_cold(sf, None, hook).result
        cost = device.clock.now

        if res.status is not LPStatus.OPTIMAL:
            return TaskResult(compute_seconds=cost)
        bound = res.objective
        if incumbent is not None and bound <= incumbent + 1e-9:
            return TaskResult(compute_seconds=cost)

        x = sf.recover_x(res.x_standard)
        fractional = problem.fractional_integers(x)
        if fractional.size == 0:
            return TaskResult(compute_seconds=cost, incumbent=bound)

        frac_vals = x[fractional] - np.floor(x[fractional])
        var = int(fractional[np.argmin(np.abs(frac_vals - 0.5))])
        value = x[var]
        lb_up = lb.copy()
        lb_up[var] = np.ceil(value)
        ub_down = ub.copy()
        ub_down[var] = np.floor(value)
        children = (
            Task(payload=(lb, ub_down), priority=-bound, nbytes=node_bytes),
            Task(payload=(lb_up, ub), priority=-bound, nbytes=node_bytes),
        )
        return TaskResult(children=children, compute_seconds=cost)

    return evaluate


def solve_distributed(
    problem: MIPProblem,
    num_workers: int,
    ramp_up: bool = True,
    dynamic_load_balancing: bool = True,
    checkpoint_every: int = 0,
) -> DistributedSearchResult:
    """Solve a MIP with a supervisor and ``num_workers`` GPU workers.

    ``num_workers == 0`` runs the sequential baseline (same evaluator,
    no communication) for speedup normalization.  A lost rank
    (:class:`RankLostError`) restarts the search from the latest
    snapshot's leaves, its incumbent carried into every evaluation —
    from the roots when no snapshot was taken yet.
    """
    evaluate = _make_evaluate(problem)
    node_bytes = 2 * problem.n * 8 + 256
    snapshots: List[SearchSnapshot] = []
    carried: Optional[float] = None  # incumbent of the snapshot restarted from

    def sink(snapshot: Snapshot) -> None:
        incumbent = _merge_incumbent(snapshot.incumbent, carried)
        snapshots.append(
            SearchSnapshot(
                leaves=[(lb.copy(), ub.copy()) for lb, ub in snapshot.tasks],
                incumbent_objective=-np.inf if incumbent is None else incumbent,
            )
        )

    def evaluate_carried(payload: NodePayload, incumbent: Optional[float]) -> TaskResult:
        return evaluate(payload, _merge_incumbent(incumbent, carried))

    config = SupervisorConfig(
        num_workers=num_workers,
        ramp_up=ramp_up,
        dynamic_load_balancing=dynamic_load_balancing,
        checkpoint_every=checkpoint_every,
        max_evaluations=MAX_EVALUATIONS,
        checkpoint_sink=sink,
    )
    roots = [Task(payload=(problem.lb.copy(), problem.ub.copy()), nbytes=node_bytes)]
    injector = active()
    restarts = 0
    while True:
        try:
            run = run_supervisor_worker(
                roots, evaluate_carried, config, network=SUMMIT_FAT_TREE
            )
            break
        except RankLostError as exc:
            restarts += 1
            if restarts > MAX_RANK_RESTARTS:
                raise FaultError(
                    f"gave up after {MAX_RANK_RESTARTS} rank-loss restarts",
                    fault_count=exc.fault_count,
                ) from exc
            if injector is not None:
                injector.resolve_recovered(exc.fault_count, site=SITE_RANK)
            obs.event(
                "fault.resume", category="fault",
                site=SITE_RANK, rank=exc.rank, restarts=restarts,
            )
            if snapshots:
                latest = snapshots[-1]
                roots = [Task(payload=leaf, nbytes=node_bytes) for leaf in latest.leaves]
                if np.isfinite(latest.incumbent_objective):
                    carried = latest.incumbent_objective

    incumbent = _merge_incumbent(run.incumbent, carried)
    return DistributedSearchResult(
        objective=np.nan if incumbent is None else incumbent,
        makespan_seconds=run.makespan,
        nodes_evaluated=run.evaluations,
        per_worker=run.per_worker,
        snapshots=snapshots,
        messages=run.metrics.count("comm.messages"),
        comm_bytes=run.metrics.count("comm.bytes"),
        restarts=restarts,
    )
