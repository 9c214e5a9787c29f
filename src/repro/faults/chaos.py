"""The chaos harness: replay fault plans against the whole stack.

A chaos run takes one :class:`repro.faults.FaultPlan` and drives the
repo's real user-facing surfaces under it:

- **api** — :func:`repro.api.solve` on a seeded knapsack, under a
  metered strategy; the answer must match the fault-free baseline and
  pass the exact certificate audit (:mod:`repro.check`);
- **serve** — a request stream through :class:`repro.serve.SolveService`;
  every admitted request must get exactly one response, none duplicated,
  and the result cache must never hold a failed answer;
- **distributed** — for plans touching ``comm.rank``, the
  supervisor–worker solve, which restarts itself from its latest
  checkpoint; the objective must match the undisturbed run;
- **cluster** — for plans touching ``cluster.group``, a sharded stream
  through :class:`repro.cluster.ClusterService` under whole-group
  fail-stops: every admitted request answered exactly once (in-flight
  work re-routed, never dropped, never double-answered) and no dead
  shard left holding a cache replica.

Every scenario also checks the injector's books: each injected fault
resolved exactly once (``injected == recovered + tolerated + escaped``)
and — for survivable plans — nothing escaped.  The pinned
:func:`builtin_corpus` is what ``make chaos`` and the CI ``cli-smoke``
job replay; :func:`run_chaos` accepts extra plans (``--plan file.json``)
so a saved failing plan becomes a regression test.  What surviving a
plan *costs* in simulated time is a measurement, not a correctness
check, and lives with the other experiments
(``benchmarks/bench_c1_chaos_overhead.py`` → ``BENCH_chaos.json``).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional

from repro import obs
from repro.errors import FaultError
from repro.faults.injector import injecting
from repro.faults.plan import (
    SITE_ECC,
    SITE_GROUP,
    SITE_KERNEL,
    SITE_NODE,
    SITE_RANK,
    SITE_TRANSFER,
    SITE_WORKER,
    FaultPlan,
    RetryPolicy,
    ScheduledFault,
)


@dataclasses.dataclass
class ChaosRun:
    """One (plan, scenario) replay and everything it asserted."""

    plan: str
    scenario: str
    ok: bool
    detail: str = ""
    counts: Dict[str, int] = dataclasses.field(default_factory=dict)
    balanced: bool = True
    escaped: int = 0
    certified: Optional[bool] = None

    def to_dict(self) -> Dict:
        return {
            "plan": self.plan,
            "scenario": self.scenario,
            "ok": self.ok,
            "detail": self.detail,
            "counts": dict(self.counts),
            "balanced": self.balanced,
            "escaped": self.escaped,
            "certified": self.certified,
        }


@dataclasses.dataclass
class ChaosReport:
    """Outcome of one corpus replay."""

    runs: List[ChaosRun] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(run.ok for run in self.runs)

    @property
    def total_injected(self) -> int:
        return sum(run.counts.get("injected", 0) for run in self.runs)

    def to_dict(self) -> Dict:
        return {
            "ok": self.ok,
            "runs": [run.to_dict() for run in self.runs],
            "total_injected": self.total_injected,
        }


def builtin_corpus(seed: int = 0) -> List[FaultPlan]:
    """The pinned replay corpus: one plan per fault family, plus mixes.

    Scheduled plans pin faults to exact occurrence indices so the CI
    smoke exercises every recovery path deterministically even on tiny
    workloads; the generated plans add seeded rate-based background
    noise.  All plans here are survivable by construction
    (``retry.max_attempts`` exceeds every budget).
    """
    retry = RetryPolicy(max_attempts=6)
    return [
        FaultPlan(
            seed=seed,
            scheduled=(
                ScheduledFault(site=SITE_KERNEL, at=3),
                ScheduledFault(site=SITE_KERNEL, at=4),
                ScheduledFault(site=SITE_KERNEL, at=11),
            ),
            retry=retry,
            name="kernel-burst",
        ),
        FaultPlan(
            seed=seed,
            scheduled=(ScheduledFault(site=SITE_ECC, at=5),),
            retry=retry,
            name="ecc-degrade",
        ),
        FaultPlan(
            seed=seed,
            rates={SITE_TRANSFER: 0.1},
            max_faults=4,
            retry=retry,
            name="transfer-flaky",
        ),
        FaultPlan(
            seed=seed,
            scheduled=(ScheduledFault(site=SITE_WORKER, at=0),),
            rates={SITE_WORKER: 0.1},
            max_faults=3,
            retry=retry,
            name="worker-crash",
        ),
        FaultPlan(
            seed=seed,
            scheduled=(ScheduledFault(site=SITE_NODE, at=1),),
            rates={SITE_NODE: 0.05},
            max_faults=3,
            retry=retry,
            name="node-kill",
        ),
        FaultPlan(
            seed=seed,
            scheduled=(ScheduledFault(site=SITE_RANK, at=2, rank=1),),
            retry=retry,
            name="rank-drop",
        ),
        FaultPlan(
            seed=seed,
            scheduled=(
                ScheduledFault(site=SITE_GROUP, at=2),
                ScheduledFault(site=SITE_GROUP, at=5),
            ),
            retry=retry,
            name="group-kill",
        ),
        FaultPlan.generate(seed, intensity="light"),
        FaultPlan.generate(seed + 1, intensity="heavy"),
        FaultPlan.survivable(seed + 2),
    ]


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


def _chaos_problem(seed: int, items: int):
    from repro.problems.knapsack import generate_knapsack

    return generate_knapsack(items, seed=seed)


def _accounting(run: ChaosRun, injector) -> None:
    """Fold the injector's books into the run; flag violations.

    Every injected fault must be resolved exactly once, and nothing may
    escape: the corpus is survivable by construction, so an escaped
    fault means a recovery path dropped the ball.
    """
    run.counts = injector.counts()
    run.balanced = injector.balanced
    run.escaped = run.counts["escaped"]
    if not run.balanced:
        run.ok = False
        run.detail = (run.detail + "; " if run.detail else "") + (
            "unbalanced fault accounting: "
            f"{run.counts}"
        )
    if run.escaped:
        run.ok = False
        run.detail = (run.detail + "; " if run.detail else "") + (
            f"{run.escaped} fault(s) escaped recovery"
        )


def _api_scenario(
    plan: FaultPlan, seed: int, items: int, strategy: str = "gpu_only"
) -> ChaosRun:
    """One metered solve under the plan, audited against the baseline."""
    from repro.api import SolveOptions, solve
    from repro.check import certify_mip_result
    from repro.mip.solver import SolverOptions

    problem = _chaos_problem(seed, items)
    baseline = solve(problem, SolveOptions(strategy=strategy))
    run = ChaosRun(plan=plan.name, scenario="api", ok=True)
    try:
        with injecting(plan) as injector:
            report = solve(
                problem,
                SolveOptions(
                    strategy=strategy,
                    solver=SolverOptions(checkpoint_every=2),
                ),
            )
            _accounting(run, injector)
    except FaultError as exc:
        return ChaosRun(
            plan=plan.name, scenario="api", ok=False,
            detail=f"unrecovered {type(exc).__name__}: {exc}",
        )
    if report.status != baseline.status:
        run.ok = False
        run.detail = f"status {report.status!r} != baseline {baseline.status!r}"
        return run
    if report.x is not None and abs(report.objective - baseline.objective) > 1e-6:
        run.ok = False
        run.detail = (
            f"objective {report.objective:.9g} != "
            f"baseline {baseline.objective:.9g}"
        )
        return run
    certificate = certify_mip_result(problem, report.result)
    run.certified = certificate.ok
    if not certificate.ok:
        run.ok = False
        run.detail = "certificate audit failed: " + "; ".join(
            check.name for check in certificate.checks if not check.ok
        )
    return run


def _serve_scenario(
    plan: FaultPlan, seed: int, items: int, requests: int = 8
) -> ChaosRun:
    """A request stream through the service; no lost or duplicate answers."""
    from repro.serve.service import SolveService
    from repro.serve.workload import mip_pool

    pool = mip_pool(max(2, requests // 2), num_items=items, seed=seed)
    run = ChaosRun(plan=plan.name, scenario="serve", ok=True)
    try:
        with injecting(plan) as injector:
            service = SolveService(num_workers=2)
            ids = []
            for i in range(requests):
                ids.append(
                    service.submit(pool[i % len(pool)], at=1e-4 * i)
                )
            responses = service.close()
            _accounting(run, injector)
    except FaultError as exc:
        return ChaosRun(
            plan=plan.name, scenario="serve", ok=False,
            detail=f"unrecovered {type(exc).__name__}: {exc}",
        )
    answered = [r.request_id for r in responses]
    if sorted(answered) != sorted(ids):
        run.ok = False
        lost = set(ids) - set(answered)
        dup = len(answered) - len(set(answered))
        run.detail = f"lost {sorted(lost)}, {dup} duplicated"
        return run
    # The cache must never serve a failed answer back.
    for entry in service.cache._entries.values():
        if entry.outcome.value != "ok":
            run.ok = False
            run.detail = "result cache holds a non-ok entry"
            return run
    failed = [r for r in responses if r.outcome.value == "failed"]
    if failed and not run.escaped:
        run.ok = False
        run.detail = f"{len(failed)} failed response(s) without escaped faults"
    return run


def _distributed_scenario(plan: FaultPlan, seed: int, items: int) -> ChaosRun:
    """Supervisor–worker solve surviving rank drops; objective must match."""
    from repro.strategies.distributed import solve_distributed

    problem = _chaos_problem(seed, items)
    baseline = solve_distributed(problem, num_workers=2, checkpoint_every=4)
    run = ChaosRun(plan=plan.name, scenario="distributed", ok=True)
    try:
        with injecting(plan) as injector:
            recovered = solve_distributed(problem, num_workers=2, checkpoint_every=4)
            _accounting(run, injector)
    except FaultError as exc:
        return ChaosRun(
            plan=plan.name, scenario="distributed", ok=False,
            detail=f"unrecovered {type(exc).__name__}: {exc}",
        )
    base_obj = baseline.objective
    rec_obj = recovered.objective
    if math.isnan(base_obj) != math.isnan(rec_obj) or (
        abs(base_obj - rec_obj) > 1e-6
    ):
        run.ok = False
        run.detail = f"objective {rec_obj!r} != baseline {base_obj!r}"
    return run


def _cluster_scenario(
    plan: FaultPlan, seed: int, items: int, requests: int = 8
) -> ChaosRun:
    """A sharded stream under whole-group kills; every id answered once.

    Drives a 3-group :class:`repro.cluster.ClusterService`; the front
    door consults ``cluster.group`` once per admission, so a scheduled
    kill fires at a deterministic request index.  The invariants: the
    killed groups' in-flight work is re-routed (nothing lost, nothing
    double-answered) and no dead shard still holds a cache replica.
    """
    from repro.cluster import ClusterService
    from repro.serve.workload import mip_pool

    pool = mip_pool(max(2, requests // 2), num_items=items, seed=seed)
    run = ChaosRun(plan=plan.name, scenario="cluster", ok=True)
    try:
        with injecting(plan) as injector:
            cluster = ClusterService(groups=3, num_workers=2)
            ids = []
            for i in range(requests):
                ids.append(cluster.submit(pool[i % len(pool)], at=1e-4 * i))
            responses = cluster.close()
            _accounting(run, injector)
    except FaultError as exc:
        return ChaosRun(
            plan=plan.name, scenario="cluster", ok=False,
            detail=f"unrecovered {type(exc).__name__}: {exc}",
        )
    answered = [r.request_id for r in responses]
    if sorted(answered) != sorted(ids):
        run.ok = False
        lost = set(ids) - set(answered)
        dup = len(answered) - len(set(answered))
        run.detail = f"lost {sorted(lost)}, {dup} duplicated"
        return run
    if plan.touches(SITE_GROUP) and not cluster.metrics.count(
        "cluster.group_kills"
    ):
        run.ok = False
        run.detail = "plan touches cluster.group but no group was killed"
        return run
    # A dead shard must never satisfy a later lookup: the only replicas
    # left standing belong to groups that are still alive.
    replicas = set(cluster.cache.stats()["replicas"])
    if replicas != set(cluster.group_ids):
        run.ok = False
        run.detail = (
            f"cache replicas {sorted(replicas)} != "
            f"live groups {cluster.group_ids}"
        )
    return run


# ---------------------------------------------------------------------------
# The harness
# ---------------------------------------------------------------------------


def run_chaos(
    plans: Optional[List[FaultPlan]] = None,
    seed: int = 0,
    items: int = 8,
    requests: int = 8,
    serve: bool = True,
    log_fn=None,
) -> ChaosReport:
    """Replay every plan against each scenario its sites can reach.

    Plans touching only serve sites skip the api scenario and vice
    versa; plans touching ``comm.rank`` run the distributed scenario
    (the only surface with simulated ranks).  ``log_fn`` (e.g.
    ``print``) gets one progress line per run.
    """
    plans = list(builtin_corpus(seed)) if plans is None else list(plans)
    report = ChaosReport()
    for plan in plans:
        scenarios = []
        device_sites = (SITE_KERNEL, SITE_ECC, SITE_TRANSFER, SITE_NODE)
        if any(plan.touches(site) for site in device_sites) or plan.empty:
            scenarios.append(lambda p: _api_scenario(p, seed, items))
        if serve and (
            plan.touches(SITE_WORKER)
            or any(plan.touches(site) for site in device_sites)
        ):
            scenarios.append(
                lambda p: _serve_scenario(p, seed, items, requests=requests)
            )
        if plan.touches(SITE_RANK):
            scenarios.append(lambda p: _distributed_scenario(p, seed, items))
        if plan.touches(SITE_GROUP):
            scenarios.append(
                lambda p: _cluster_scenario(p, seed, items, requests=requests)
            )
        for scenario in scenarios:
            run = scenario(plan)
            report.runs.append(run)
            obs.event(
                "chaos.run", category="fault",
                plan=run.plan, scenario=run.scenario, ok=run.ok,
            )
            if log_fn is not None:
                mark = "ok " if run.ok else "FAIL"
                counts = run.counts or {}
                log_fn(
                    f"[{mark}] {run.plan:<16} {run.scenario:<12} "
                    f"injected={counts.get('injected', 0)} "
                    f"recovered={counts.get('recovered', 0)} "
                    f"tolerated={counts.get('tolerated', 0)} "
                    f"escaped={counts.get('escaped', 0)}"
                    + (f"  {run.detail}" if run.detail else "")
                )
    return report
