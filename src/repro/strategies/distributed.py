"""Distributed branch-and-bound over the supervisor–worker engine.

The ParaSCIP/UG layout of §2.3 combined with strategy 2: rank 0
supervises the node pool (ramp-up, dynamic load balancing,
checkpointing); each worker owns a GPU and evaluates one
branch-and-bound node per task — LP relaxation on its device, children
shipped back as new tasks.  Per-node compute time comes from a real
metered LP solve, so the scaling curves of experiment E8 reflect actual
LP costs, not synthetic task lengths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.comm.network import SUMMIT_FAT_TREE
from repro.comm.supervisor import (
    Snapshot,
    SupervisorConfig,
    SupervisorResult,
    Task,
    TaskResult,
    run_supervisor_worker,
)
from repro.device.gpu import Device
from repro.device.spec import V100
from repro.lp.result import LPStatus
from repro.lp.simplex import solve_standard_form
from repro.mip.problem import MIPProblem
from repro.strategies.engine import DeviceCostHook

#: A distributable node: its bound box (lb, ub) and depth.
NodePayload = Tuple[np.ndarray, np.ndarray, int]

#: Node evaluations a distributed search may spend.
MAX_EVALUATIONS = 200_000


@dataclass
class DistributedSearchResult:
    """Outcome of a distributed branch-and-bound run."""

    objective: float
    makespan_seconds: float
    nodes_evaluated: int
    per_worker: List[int]
    snapshots: List[Snapshot]
    messages: int
    comm_bytes: int


def _make_evaluate(problem: MIPProblem):
    """Node evaluator: one LP relaxation on a fresh per-call device meter.

    The device clock delta becomes the task's compute time; a fresh
    device per call keeps the meter independent of scheduling order (the
    upload of the resident matrix is excluded — it happens once per
    worker at ramp-up in the real system).
    """

    node_bytes = 2 * problem.n * 8 + 256

    def evaluate(payload: NodePayload, incumbent: Optional[float]) -> TaskResult:
        lb, ub, depth = payload
        device = Device(V100)
        hook = DeviceCostHook(device, mode="dense")
        lp = problem.restricted(lb, ub).relaxation()
        sf = lp.to_bounded_form()
        res = solve_standard_form(sf, hook=hook)
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
            Task(payload=(lb, ub_down, depth + 1), priority=-bound, nbytes=node_bytes),
            Task(payload=(lb_up, ub, depth + 1), priority=-bound, nbytes=node_bytes),
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
    no communication) for speedup normalization.
    """
    evaluate = _make_evaluate(problem)
    root = Task(
        payload=(problem.lb.copy(), problem.ub.copy(), 0),
        priority=0.0,
        nbytes=2 * problem.n * 8 + 256,
    )
    config = SupervisorConfig(
        num_workers=num_workers,
        ramp_up=ramp_up,
        dynamic_load_balancing=dynamic_load_balancing,
        checkpoint_every=checkpoint_every,
        max_evaluations=MAX_EVALUATIONS,
    )
    run: SupervisorResult = run_supervisor_worker(
        [root], evaluate, config, network=SUMMIT_FAT_TREE
    )
    return DistributedSearchResult(
        objective=run.incumbent if run.incumbent is not None else np.nan,
        makespan_seconds=run.makespan,
        nodes_evaluated=run.evaluations,
        per_worker=run.per_worker,
        snapshots=run.snapshots,
        messages=run.metrics.count("comm.messages"),
        comm_bytes=run.metrics.count("comm.bytes"),
    )
