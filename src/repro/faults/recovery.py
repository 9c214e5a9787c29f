"""Checkpoint-based recovery drivers for injected crashes.

Two restart loops, both built on the repo's consistent-snapshot
machinery (paper §2.1/§2.3 — the set of leaves/tasks that preserves the
optimum):

- :func:`resume_leaves` — the one leaf worklist: each leaf box of a
  :class:`repro.mip.snapshot.SearchSnapshot` is solved as a sub-MIP and
  the incumbents merged.  Under ``mip.node`` kills the solver
  checkpoints every N nodes (``SolverOptions.checkpoint_fn``); on a
  :class:`SolverCrashError` the crashed leaf is replaced by the latest
  snapshot's leaves, so the final incumbent and dual bound match an
  uninterrupted run exactly.  :func:`solve_with_checkpoint_resume` runs
  it from the whole problem, :func:`repro.mip.snapshot.resume_from_snapshot`
  from a captured snapshot;
- :func:`solve_distributed_with_recovery` — the supervisor–worker run
  under ``comm.rank`` drops: the supervisor streams snapshots to a
  ``checkpoint_sink`` that outlives the crashed SimMPI run; on a
  :class:`RankLostError` the driver restarts from the latest snapshot's
  queued ∪ outstanding task set with its incumbent pre-seeded.

Both loops resolve the crash faults they mask as *recovered*, keeping
the injector's ``injected == recovered + tolerated`` invariant.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.comm.network import SUMMIT_FAT_TREE
from repro.comm.supervisor import (
    Snapshot,
    SupervisorConfig,
    SupervisorResult,
    Task,
    _merge_incumbent,
    run_supervisor_worker,
)
from repro.errors import FaultError, RankLostError, SolverCrashError
from repro.faults.injector import active
from repro.faults.plan import SITE_NODE, SITE_RANK
from repro.mip.problem import MIPProblem
from repro.mip.result import MIPResult, MIPStatus
from repro.mip.snapshot import SearchSnapshot
from repro.mip.solver import BranchAndBoundSolver, ExecutionEngine, SolverOptions
from repro import obs

#: Default node interval between snapshots when the caller sets none.
DEFAULT_CHECKPOINT_EVERY = 8
#: Crash restarts the leaf worklist absorbs before giving up.
MAX_RESTARTS = 10_000
#: Rank-loss restarts the supervisor run absorbs before giving up.
MAX_RANK_RESTARTS = 100
#: Task interval between supervisor snapshots in the distributed solve.
RANK_CHECKPOINT_EVERY = 4


@dataclasses.dataclass
class ResumeStats:
    """What the checkpoint-resume driver did beyond solving."""

    restarts: int = 0
    checkpoints: int = 0


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
    nodes = 0
    lp_iterations = 0
    stats = ResumeStats()

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
        try:
            result = solver.solve()
        except SolverCrashError as exc:
            stats.restarts += 1
            if stats.restarts > MAX_RESTARTS:
                raise FaultError(
                    f"gave up after {MAX_RESTARTS} crash restarts",
                    fault_count=exc.fault_count,
                ) from exc
            # Wasted work is real work: it happened before the crash.
            nodes += solver.stats.nodes_processed
            lp_iterations += solver.stats.lp_iterations
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

        nodes += solver.stats.nodes_processed
        lp_iterations += solver.stats.lp_iterations
        if result.status is MIPStatus.OPTIMAL and result.objective > best_obj:
            best_obj = result.objective
            best_x = result.x
        elif result.status not in (MIPStatus.OPTIMAL, MIPStatus.INFEASIBLE):
            final_status = result.status
        worklist = rest

    if final_status is None:
        final_status = (
            MIPStatus.OPTIMAL if best_x is not None else MIPStatus.INFEASIBLE
        )
    out = MIPResult(
        status=final_status,
        objective=best_obj if best_x is not None else np.nan,
        x=best_x,
        best_bound=best_obj if best_x is not None else -np.inf,
    )
    out.stats.nodes_processed = nodes
    out.stats.lp_iterations = lp_iterations
    return out, stats


# ---------------------------------------------------------------------------
# Distributed rank-loss recovery
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class DistributedRecoveryResult:
    """Outcome of a rank-loss-tolerant supervisor–worker run."""

    incumbent: Optional[float]
    evaluations: int
    makespan: float
    restarts: int
    #: The final (successful) run's full result.
    final_run: SupervisorResult


def run_supervisor_with_recovery(
    roots: List[Task], evaluate: Callable, config: SupervisorConfig
) -> DistributedRecoveryResult:
    """Run the supervisor–worker engine to completion despite rank drops.

    On each :class:`RankLostError` the run restarts from the latest
    snapshot delivered to the checkpoint sink (queued ∪ outstanding
    tasks + incumbent); ``evaluate`` is wrapped so the restarted run
    prunes against the pre-crash incumbent from its first node.
    """
    injector = active()
    latest: List[Optional[Snapshot]] = [None]
    user_sink = config.checkpoint_sink

    def sink(snapshot: Snapshot) -> None:
        latest[0] = snapshot
        if user_sink is not None:
            user_sink(snapshot)

    every = config.checkpoint_every or 4
    config = dataclasses.replace(
        config, checkpoint_every=every, checkpoint_sink=sink
    )

    current_roots = list(roots)
    prior_incumbent: Optional[float] = None
    restarts = 0

    while True:
        prior = prior_incumbent

        def wrapped(payload, incumbent, _prior=prior):
            return evaluate(payload, _merge_incumbent(incumbent, _prior))

        try:
            run = run_supervisor_worker(
                current_roots, wrapped, config, network=SUMMIT_FAT_TREE
            )
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
            snapshot = latest[0]
            if snapshot is not None:
                nbytes = roots[0].nbytes if roots else 256
                current_roots = [
                    Task(payload=payload, nbytes=nbytes)
                    for payload in snapshot.tasks
                ]
                prior_incumbent = _merge_incumbent(prior_incumbent, snapshot.incumbent)
            continue

        incumbent = _merge_incumbent(run.incumbent, prior_incumbent)
        return DistributedRecoveryResult(
            incumbent=incumbent,
            evaluations=run.evaluations,
            makespan=run.makespan,
            restarts=restarts,
            final_run=run,
        )


def solve_distributed_with_recovery(
    problem: MIPProblem, num_workers: int = 2
) -> DistributedRecoveryResult:
    """Distributed MIP solve that survives simulated rank drops.

    The rank-loss analogue of :func:`repro.strategies.distributed.
    solve_distributed`, wrapped in :func:`run_supervisor_with_recovery`.
    """
    from repro.strategies.distributed import MAX_EVALUATIONS, _make_evaluate

    evaluate = _make_evaluate(problem)
    root = Task(
        payload=(problem.lb.copy(), problem.ub.copy(), 0),
        priority=0.0,
        nbytes=2 * problem.n * 8 + 256,
    )
    config = SupervisorConfig(
        num_workers=num_workers,
        checkpoint_every=RANK_CHECKPOINT_EVERY,
        max_evaluations=MAX_EVALUATIONS,
    )
    return run_supervisor_with_recovery([root], evaluate, config)
