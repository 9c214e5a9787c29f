"""Checkpoint-based recovery for injected ``mip.node`` crashes.

:func:`resume_leaves` is the one leaf worklist, built on the repo's
consistent-snapshot machinery (paper §2.1/§2.3 — the set of leaves that
preserves the optimum): each leaf box of a
:class:`repro.mip.snapshot.SearchSnapshot` is solved as a sub-MIP and
the incumbents merged.  Under ``mip.node`` kills the solver checkpoints
every N nodes (``SolverOptions.checkpoint_fn``); on a
:class:`SolverCrashError` the crashed leaf is replaced by the latest
snapshot's leaves, so the final incumbent and dual bound match an
uninterrupted run exactly.  :func:`solve_with_checkpoint_resume` runs it
from the whole problem, :func:`repro.mip.snapshot.resume_from_snapshot`
from a captured or loaded snapshot — a distributed search's checkpoints
included.  The loop resolves the crash faults it masks as *recovered*,
keeping the injector's ``injected == recovered + tolerated`` invariant.

A lost rank is the distributed search's own concern:
:func:`repro.strategies.distributed.solve_distributed` restarts itself
from its latest snapshot.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import FaultError, SolverCrashError
from repro.faults.injector import active
from repro.faults.plan import SITE_NODE
from repro.mip.problem import MIPProblem
from repro.mip.result import MIPResult, MIPStats, MIPStatus
from repro.mip.snapshot import SearchSnapshot
from repro.mip.solver import BranchAndBoundSolver, ExecutionEngine, SolverOptions
from repro import obs

#: Default node interval between snapshots when the caller sets none.
DEFAULT_CHECKPOINT_EVERY = 8
#: Crash restarts the leaf worklist absorbs before giving up.
MAX_RESTARTS = 10_000


@dataclasses.dataclass
class ResumeStats:
    """What the checkpoint-resume driver did beyond solving."""

    restarts: int = 0
    checkpoints: int = 0
    #: Nodes the attempts after the first crash solved: the restart's
    #: own search, re-solving the latest snapshot's leaves.
    resumed_nodes: int = 0


def solve_with_checkpoint_resume(
    problem: MIPProblem,
    solver_options: Optional[SolverOptions] = None,
    engine: Optional[ExecutionEngine] = None,
) -> Tuple[MIPResult, ResumeStats]:
    """Run branch-and-bound to completion despite ``mip.node`` kills."""
    whole = SearchSnapshot(leaves=[(problem.lb.copy(), problem.ub.copy())])
    return resume_leaves(problem, whole, solver_options, engine)


def resume_leaves(
    problem: MIPProblem,
    snapshot: SearchSnapshot,
    solver_options: Optional[SolverOptions] = None,
    engine: Optional[ExecutionEngine] = None,
) -> Tuple[MIPResult, ResumeStats]:
    """Solve every leaf box of ``snapshot`` as a sub-MIP; merge incumbents.

    The worklist starts as the snapshot's leaves and incumbent; each
    crash replaces the crashed leaf with the latest snapshot's leaves
    and the search resumes.  Non-crash :class:`FaultError`\\ s (kernel,
    ECC, transfer) propagate to the caller — they are the degradation
    path's concern, not this driver's.
    """
    solver_options = solver_options or SolverOptions()
    every = solver_options.checkpoint_every or DEFAULT_CHECKPOINT_EVERY
    injector = active()

    worklist: List[Tuple[np.ndarray, np.ndarray]] = list(snapshot.leaves)
    best_obj = snapshot.incumbent_objective
    best_x: Optional[np.ndarray] = snapshot.incumbent_x
    final_status: Optional[MIPStatus] = None
    # Every attempt's work, a crashed one's included: it happened.
    work = MIPStats()
    stats = ResumeStats()
    floor = best_obj

    def absorb(attempt: MIPStats) -> None:
        """Sum ``attempt`` into ``work``: its history after the attempts'
        nodes before it, improvements only; first marks the earliest's
        (seconds as stamped: one engine clock runs across attempts)."""
        shift = work.nodes_processed
        best = work.incumbent_history[-1][1] if work.incumbent_history else floor
        work.incumbent_history += [(k + shift, v) for k, v in attempt.incumbent_history if v > best]
        if work.first_incumbent_nodes < 0 <= attempt.first_incumbent_nodes:
            work.first_incumbent_nodes = attempt.first_incumbent_nodes + shift
            work.first_incumbent_seconds = attempt.first_incumbent_seconds
        work.absorb(attempt)

    while worklist:
        lb, ub = worklist[0]
        rest = worklist[1:]
        sub = problem.restricted(lb, ub)

        latest: List[Optional[SearchSnapshot]] = [None]

        def checkpoint_fn(snapshot: SearchSnapshot) -> None:
            latest[0] = snapshot
            stats.checkpoints += 1

        attempt_options = dataclasses.replace(
            solver_options, checkpoint_every=every, checkpoint_fn=checkpoint_fn
        )
        solver = BranchAndBoundSolver(sub, attempt_options, engine=engine)
        resumed = stats.restarts > 0
        try:
            result = solver.solve()
        except SolverCrashError as exc:
            stats.restarts += 1
            if stats.restarts > MAX_RESTARTS:
                raise FaultError(
                    f"gave up after {MAX_RESTARTS} crash restarts",
                    fault_count=exc.fault_count,
                ) from exc
            stats.resumed_nodes += resumed * solver.stats.nodes_processed
            absorb(solver.stats)
            if injector is not None:
                injector.resolve_recovered(exc.fault_count, site=SITE_NODE)
            obs.event(
                "fault.resume", category="fault",
                site=SITE_NODE, restarts=stats.restarts,
            )
            snapshot = latest[0]
            if snapshot is not None:
                best_obj = max(best_obj, snapshot.incumbent_objective)
                if (
                    snapshot.incumbent_x is not None
                    and snapshot.incumbent_objective >= best_obj
                ):
                    best_x = snapshot.incumbent_x
                worklist = list(snapshot.leaves) + rest
            # No snapshot yet: re-run the same leaf from scratch.
            continue

        stats.resumed_nodes += resumed * solver.stats.nodes_processed
        absorb(solver.stats)
        if result.status is MIPStatus.OPTIMAL and result.objective > best_obj:
            best_obj = result.objective
            best_x = result.x
        elif result.status not in (MIPStatus.OPTIMAL, MIPStatus.INFEASIBLE):
            final_status = result.status
        worklist = rest

    # A finite incumbent is an incumbent, point or not: a snapshot may
    # carry only its value (a distributed one always does).
    found = bool(np.isfinite(best_obj))
    if final_status is None:
        final_status = MIPStatus.OPTIMAL if found else MIPStatus.INFEASIBLE
    out = MIPResult(
        status=final_status,
        objective=best_obj if found else np.nan,
        x=best_x,
        best_bound=best_obj if found else -np.inf,
        stats=work,
    )
    return out, stats
