"""Differential testing: one instance, every applicable solver pair.

Two independent implementations rarely share a bug; running the same
instance through primal simplex, a dual-simplex re-solve, the interior
point method, the lockstep batched simplex, branch-and-bound
configurations with different search orders (warm and cold node LPs
among them, and the first one twice, bit for bit), and all four metered
strategy engines gives the strongest cheap oracle we can build (the
CHAP / batched-LP validation pattern).  Every one of those shares code
we wrote — the incumbent-implied fixing of the node loop is common to
every ``bb/*`` configuration — so both lanes also run HiGHS (through
``scipy.optimize.milp``) when it is importable: the referee we did not
write.

Runs that end in an inconclusive status (iteration limits) are recorded
but never flagged — only *contradictory terminal answers* count as a
disagreement: OPTIMAL objectives apart beyond tolerance, or one solver
proving a status another solver's certificate-grade answer excludes.

The serving stack has its own lane: :func:`differential_cluster` replays
one request stream through a plain :class:`repro.serve.SolveService` and
a one-shard :class:`repro.cluster.ClusterService` over a zero-cost
network hop, and demands bitwise-equal ``report_dict`` responses modulo
``trace_id`` — the whole routing/cache/admission tier must be
observationally invisible at N=1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.api import SolveOptions, solve
from repro.errors import LPError, ReproError, SolverDisagreement
from repro.lp.batch_simplex import lockstep_compatible, solve_lp_batch
from repro.lp.dual_simplex import dual_simplex_resolve
from repro.lp.interior_point import IPMOptions, interior_point_solve
from repro.lp.pdhg import PDHGOptions, solve_lp_pdhg
from repro.lp.pdhg_batch import solve_lp_pdhg_batch
from repro.lp.problem import LinearProgram, import_row_form
from repro.lp.result import LPStatus
from repro.lp.simplex import solve_lp, solve_standard_form
from repro.lp.warm import state_from_result, warm_resolve
from repro.mip.batch_solver import BatchedRoundEngine
from repro.mip.problem import MIPProblem
from repro.mip.result import MIPResult, MIPStatus
from repro.mip.solver import BranchAndBoundSolver, ExecutionEngine, NodeSolve, SolverOptions
from repro.strategies.registry import metered_strategies

try:  # scipy.optimize.milp needs scipy >= 1.9
    from scipy.optimize import Bounds, LinearConstraint, milp
except ImportError:  # pragma: no cover - an older scipy: no HiGHS lane
    milp = None

#: Relative objective tolerance for declaring two solvers in agreement.
DIFFERENTIAL_RTOL = 1e-6

#: KKT tolerance for the PDHG run in :func:`differential_lp`.  The
#: tolerance policy: PDHG is an *inexact* solver, so its eps must sit
#: well inside ``DIFFERENTIAL_RTOL`` — at 1e-8 vs 1e-6 an eps-accurate
#: objective can never trip the comparison, so any flagged disagreement
#: is a genuine solver contradiction, not accumulated first-order slack.
PDHG_DIFFERENTIAL_EPS = 1e-8

#: Relative size of the warm lane's rhs / objective perturbations.
WARM_PERTURBATION_SCALE = 0.05

#: Workers per service in the cluster-equivalence lane.
CLUSTER_LANE_WORKERS = 2

@dataclass
class SolverRun:
    """One solver's answer on the shared instance."""

    name: str
    status: str
    objective: float
    #: False when the run ended inconclusively (iteration/node limit).
    conclusive: bool = True
    note: str = ""


def _run(
    name: str,
    status: Union[LPStatus, MIPStatus, str],
    objective: float = float("nan"),
    note: str = "",
    conclusive: Optional[bool] = None,
) -> SolverRun:
    """One solver's answer, conclusive when its status is terminal.

    A lane that trusts fewer statuses says so through ``conclusive``.  A
    plain-string ``status`` names a run that produced no solver status
    (an error, a skipped or refused re-solve) and is never conclusive
    unless the lane says otherwise.
    """
    if isinstance(status, str):
        return SolverRun(name, status, objective, bool(conclusive), note)
    if conclusive is None:
        conclusive = status.terminal
    return SolverRun(name, status.value, objective, conclusive, note)


@dataclass
class Disagreement:
    """A contradictory pair of terminal answers."""

    left: str
    right: str
    kind: str  # "status" or "objective"
    left_value: str
    right_value: str
    delta: float = 0.0


@dataclass
class DifferentialReport:
    """All runs plus every pairwise contradiction found."""

    problem_name: str
    runs: List[SolverRun] = field(default_factory=list)
    disagreements: List[Disagreement] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no pair of solvers contradicted each other."""
        return not self.disagreements

    def raise_for_failures(self) -> None:
        """Raise :class:`SolverDisagreement` for the first contradiction."""
        for d in self.disagreements:
            raise SolverDisagreement(d.left, d.right, d.kind, d.delta)

    def _compare(self, left: SolverRun, right: SolverRun) -> None:
        """Flag one pair of conclusive runs that contradict each other:
        different statuses, or optimal objectives apart beyond
        ``DIFFERENTIAL_RTOL``."""
        if not (left.conclusive and right.conclusive):
            return
        if left.status != right.status:
            self.disagreements.append(
                Disagreement(
                    left=left.name,
                    right=right.name,
                    kind="status",
                    left_value=left.status,
                    right_value=right.status,
                )
            )
            return
        if left.status != "optimal":
            return
        scale = 1.0 + max(abs(left.objective), abs(right.objective))
        delta = abs(left.objective - right.objective)
        if delta > DIFFERENTIAL_RTOL * scale:
            self.disagreements.append(
                Disagreement(
                    left=left.name,
                    right=right.name,
                    kind="objective",
                    left_value=f"{left.objective:.12g}",
                    right_value=f"{right.objective:.12g}",
                    delta=delta,
                )
            )

    def _compare_pairs(self) -> None:
        """Populate ``disagreements`` from all conclusive run pairs."""
        conclusive = [r for r in self.runs if r.conclusive]
        for i, left in enumerate(conclusive):
            for right in conclusive[i + 1 :]:
                self._compare(left, right)


#: HiGHS's ``milp`` statuses that carry a terminal claim.
_HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def _highs_run(problem, integrality: np.ndarray) -> Optional[SolverRun]:
    """HiGHS on ``problem`` (an LP or a MIP); None without ``milp``.

    ``mip_rel_gap=0`` holds its optimum to ``DIFFERENTIAL_RTOL`` like
    ours.  HiGHS's presolve can call an unbounded LP infeasible, so any
    verdict short of optimal is asked again without presolve and that
    answer is the one recorded.
    """
    if milp is None:
        return None
    constraints = []
    if problem.a_ub is not None:
        constraints.append(LinearConstraint(problem.a_ub, -np.inf, problem.b_ub))
    if problem.a_eq is not None:
        constraints.append(LinearConstraint(problem.a_eq, problem.b_eq, problem.b_eq))
    kwargs = dict(
        constraints=constraints,
        integrality=integrality,
        bounds=Bounds(problem.lb, problem.ub),
    )
    try:
        res = milp(-problem.c, options={"mip_rel_gap": 0.0}, **kwargs)
        if res.status != 0:
            res = milp(-problem.c, options={"mip_rel_gap": 0.0, "presolve": False}, **kwargs)
    except ValueError as exc:  # data scipy refuses (non-finite coefficients)
        return _run("highs", "error", note=str(exc))
    return _run(
        "highs",
        _HIGHS_STATUS.get(res.status, "inconclusive"),
        -float(res.fun) if res.status == 0 else float("nan"),
        note=res.message,
        conclusive=res.status in _HIGHS_STATUS,
    )


def _rhs_scaled(lp: LinearProgram, factor: float) -> LinearProgram:
    """``lp`` with both right-hand sides scaled: a same-K batch sibling."""
    return replace(
        lp,
        b_ub=None if lp.b_ub is None else factor * lp.b_ub,
        b_eq=None if lp.b_eq is None else factor * lp.b_eq,
    )


def differential_lp(lp: LinearProgram) -> DifferentialReport:
    """Run one LP through every applicable solver pair.

    Pairs: cold primal simplex on the row form vs. the same simplex on
    the bounded form (``bounded``: real rows only, its vertex exported
    back to row-form indexing) vs. a row-form dual-simplex re-solve from
    that exported basis, vs. Mehrotra interior point (iteration-limit results
    are inconclusive, not disagreements), vs. restarted PDHG solved to
    ``PDHG_DIFFERENTIAL_EPS`` — an accuracy two decades inside
    ``DIFFERENTIAL_RTOL``,
    so first-order slack cannot masquerade as a disagreement; like the
    IPM, only its terminal statuses carry a claim — once alone and once
    as the middle member of a k=3 shared-K PDHG batch whose siblings
    carry a halved and a doubled right-hand side (they terminate at
    other sweeps, so the member's answer has to survive its neighbours
    freezing around it) — vs. the lockstep batched simplex (when the
    instance meets its preconditions, solved as a batch of two so the
    batch must also agree with itself), vs. HiGHS where importable.
    """
    report = DifferentialReport(problem_name=getattr(lp, "name", "lp"))

    sf = lp.to_standard_form()
    primal = solve_lp(lp)
    for name, run in (("simplex", solve_standard_form(sf)), ("bounded", primal)):
        report.runs.append(_run(name, run.status, run.objective))

    if primal.status is LPStatus.OPTIMAL and primal.basis is not None:
        try:
            dual = dual_simplex_resolve(sf, primal.basis.copy())
            report.runs.append(
                _run(
                    "dual_simplex",
                    dual.status,
                    dual.objective,
                    note="re-solved from the bounded lane's exported basis",
                )
            )
        except LPError as exc:
            report.runs.append(_run("dual_simplex", "error", note=str(exc)))

    ipm = interior_point_solve(sf, IPMOptions())
    # The IPM documents ITERATION_LIMIT on degenerate or unbounded
    # instances; only OPTIMAL carries a claim.
    report.runs.append(
        _run(
            "interior_point",
            ipm.status,
            ipm.objective,
            conclusive=ipm.status is LPStatus.OPTIMAL,
        )
    )

    # ITERATION_LIMIT is PDHG's documented slow-convergence outcome;
    # OPTIMAL and the two-consecutive-check Farkas ray statuses are
    # terminal claims.
    pdhg = solve_lp_pdhg(lp, PDHGOptions(tolerance=PDHG_DIFFERENTIAL_EPS))
    report.runs.append(
        _run(
            "pdhg",
            pdhg.status,
            pdhg.objective,
            note=f"eps={PDHG_DIFFERENTIAL_EPS:g}, {pdhg.iterations} iterations",
        )
    )
    batch = solve_lp_pdhg_batch(
        [_rhs_scaled(lp, 0.5), lp, _rhs_scaled(lp, 2.0)],
        PDHGOptions(tolerance=PDHG_DIFFERENTIAL_EPS),
    )
    report.runs.append(
        _run(
            "pdhg_batch[1]",
            batch.statuses[1],
            float(batch.objectives[1]),
            note=(
                f"member 1 of 3 (rhs x0.5, x1, x2): "
                f"{batch.member_iterations[1]} of {batch.iterations} sweeps"
            ),
        )
    )

    if lockstep_compatible(lp):
        try:
            batch = solve_lp_batch([lp, lp])
        except (LPError, ReproError) as exc:
            report.runs.append(_run("batch_simplex", "error", note=str(exc)))
        else:
            for t in range(2):
                report.runs.append(
                    _run(f"batch_simplex[{t}]", batch.statuses[t], float(batch.objectives[t]))
                )

    highs = _highs_run(lp, np.zeros(lp.n))
    if highs is not None:
        report.runs.append(highs)

    report._compare_pairs()
    return report


def differential_cluster(stream: Sequence, policy=None) -> DifferentialReport:
    """Cluster-equivalence lane: a 1-shard cluster *is* the service.

    Replays ``stream`` — ``(arrival_time, problem)`` pairs with
    non-decreasing arrivals, each optionally followed by a dict of the
    per-request ``submit`` keywords (``timeout``, ``solve_deadline``,
    ``mode``, ``gap_target``) — through a plain
    :class:`repro.serve.SolveService` and a one-group
    :class:`repro.cluster.ClusterService` over the zero-cost network
    (``repro.comm.network.ZERO_COST``), in the same submission order.
    With one shard there is nothing to route, spill, shed, or replicate,
    so every response — cache hits, coalesced duplicates, parametric
    warm answers, heuristic channels, queue timeouts and deadline
    partials included — must come back **bitwise equal** as a
    ``report_dict``, modulo ``trace_id`` (the cluster stamps its own).
    Any field drift is a ``kind="response"`` disagreement: the front
    door changed an answer it was only supposed to forward.
    """
    from repro.cluster.service import ClusterService
    from repro.comm.network import ZERO_COST
    from repro.serve.batching import BatchingPolicy
    from repro.serve.service import SolveService

    policy = policy if policy is not None else BatchingPolicy()
    single = SolveService(policy=policy, num_workers=CLUSTER_LANE_WORKERS)
    cluster = ClusterService(
        groups=1, policy=policy, num_workers=CLUSTER_LANE_WORKERS, network=ZERO_COST
    )
    for at, problem, *keywords in stream:
        kwargs = keywords[0] if keywords else {}
        single.submit(problem, at=at, **kwargs)
        cluster.submit(problem, at=at, **kwargs)
    left = single.close()
    right = cluster.close()

    report = DifferentialReport(problem_name=f"cluster-vs-serve[{len(left)}]")

    def summarize(name: str, responses) -> None:
        ok = sum(1 for r in responses if r.ok)
        total = sum(r.objective for r in responses if r.objective is not None)
        report.runs.append(
            _run(name, "stream", float(total), note=f"{len(responses)} responses, {ok} ok")
        )

    summarize("serve", left)
    summarize("cluster", right)

    if len(left) != len(right):
        report.disagreements.append(
            Disagreement(
                left="serve",
                right="cluster",
                kind="count",
                left_value=str(len(left)),
                right_value=str(len(right)),
                delta=float(abs(len(left) - len(right))),
            )
        )
        return report

    for l_resp, r_resp in zip(left, right):
        dl = l_resp.to_dict()
        dr = r_resp.to_dict()
        dl.pop("trace_id", None)
        dr.pop("trace_id", None)
        if dl == dr:
            continue
        fields = [k for k in sorted(set(dl) | set(dr)) if dl.get(k) != dr.get(k)]
        report.disagreements.append(
            Disagreement(
                left=f"serve[{l_resp.request_id}]",
                right=f"cluster[{r_resp.request_id}]",
                kind="response",
                left_value=repr({k: dl.get(k) for k in fields})[:400],
                right_value=repr({k: dr.get(k) for k in fields})[:400],
            )
        )
    return report


class _RowFormEngine(ExecutionEngine):
    """Referee for the tree's bounded form: every node LP is solved cold
    on ``to_standard_form()`` and imported back into bounded indexing."""

    def solve_round(self, members) -> list:
        return [
            NodeSolve(import_row_form(lp, sf, solve_standard_form(lp.to_standard_form())))
            for lp, sf, _ in members
        ]


#: Branch-and-bound configurations with genuinely different search paths:
#: (name, node_selection, branching, cut_rounds, node_lp, warm_start,
#: engine factory — None is the B&B solver's default host engine).  The first
#: also runs twice, and the two runs must be bit identical.
_MIP_CONFIGS = (
    ("bb/best_first+pseudocost", "best_first", "pseudocost", 0, "simplex", True, None),
    (
        "bb/depth_first+most_fractional",
        "depth_first",
        "most_fractional",
        0,
        "simplex",
        True,
        None,
    ),
    ("bb/best_first+cuts", "best_first", "pseudocost", 2, "simplex", True, None),
    # Node relaxations by restarted PDHG with padded bounds — a wholly
    # different LP algorithm must still land on the same MIP optimum.
    ("bb/pdhg_nodes", "best_first", "pseudocost", 0, "pdhg", True, None),
    # Every node LP from scratch — the warm-start reuse path (parent
    # basis + resident factorization) must change pivot counts only,
    # never the optimum.  Against the first configuration this is the
    # warm-vs-cold pair.
    ("bb/cold_nodes", "best_first", "pseudocost", 0, "simplex", False, None),
    # Four nodes per round: members of a round cannot prune each other,
    # so the tree grows, but it must close on the same optimum.
    ("bb/round4", "best_first", "most_fractional", 0, "simplex", True, lambda: BatchedRoundEngine(4)),
    # The tree runs on the bounded form (bounds beside the basis); the
    # same search with every node LP on the row form must agree with it.
    ("bb/row_form", "best_first", "pseudocost", 0, "simplex", False, _RowFormEngine),
)


def _branch_and_bound(problem: MIPProblem, config: tuple, node_limit: int) -> MIPResult:
    """One ``_MIP_CONFIGS`` row run on ``problem``."""
    _name, selection, branching, cut_rounds, node_lp, warm_start, engine = config
    options = SolverOptions(
        node_selection=selection,
        branching=branching,
        cut_rounds=cut_rounds,
        node_limit=node_limit,
        node_lp=node_lp,
        warm_start=warm_start,
    )
    return BranchAndBoundSolver(problem, options, engine=engine and engine()).solve()


def _fingerprint(result: MIPResult) -> str:
    """Status, incumbent, dual bound and node count, bit for bit."""
    return (
        f"{result.status.value}/{result.objective!r}/"
        f"{result.best_bound!r}/{result.stats.nodes_processed}"
    )


def differential_mip(
    problem: MIPProblem,
    node_limit: int = 50_000,
    strategies: Optional[Sequence[str]] = None,
) -> DifferentialReport:
    """Run one MIP through every applicable solver configuration.

    Covers the plain branch-and-bound under different node-selection /
    branching / cut / warm-start settings (different search trees must
    meet at the same optimum), the four metered ``strategies/`` engines
    (pass ``strategies=()`` to skip them for speed), and HiGHS where
    importable.  The first configuration runs twice: warm-start state is
    keyed by node id and must not introduce run-to-run nondeterminism,
    so the two runs must agree bit for bit in status, incumbent, dual
    bound and node count (``kind="determinism"``).
    """
    report = DifferentialReport(problem_name=problem.name)

    results = [_branch_and_bound(problem, config, node_limit) for config in _MIP_CONFIGS]
    for config, result in zip(_MIP_CONFIGS, results):
        report.runs.append(_run(config[0], result.status, result.objective))
    name = _MIP_CONFIGS[0][0]
    first = _fingerprint(results[0])
    again = _fingerprint(_branch_and_bound(problem, _MIP_CONFIGS[0], node_limit))
    if again != first:
        report.disagreements.append(
            Disagreement(
                left=name,
                right=f"{name}#2",
                kind="determinism",
                left_value=first,
                right_value=again,
            )
        )

    if strategies is None:
        strategies = metered_strategies()
    for strategy in strategies:
        options = SolveOptions(
            strategy=strategy, solver=SolverOptions(node_limit=node_limit)
        )
        result = solve(problem, options).result
        report.runs.append(_run(f"strategy/{strategy}", result.status, result.objective))

    highs = _highs_run(problem, problem.integer.astype(int))
    if highs is not None:
        report.runs.append(highs)

    report._compare_pairs()
    return report


def _finite_lp_data(lp: LinearProgram) -> bool:
    """True when every coefficient is finite (bounds may be ±inf)."""
    for arr in (lp.c, lp.a_ub, lp.b_ub, lp.a_eq, lp.b_eq):
        if arr is not None and not np.all(np.isfinite(arr)):
            return False
    for arr in (lp.lb, lp.ub):
        if arr is not None and np.any(np.isnan(arr)):
            return False
    return True


def differential_warm_lp(
    lp: LinearProgram, perturbations: int = 3, seed: int = 0
) -> DifferentialReport:
    """Warm-vs-cold lane: re-solves from a stale basis must agree cold.

    Solves ``lp`` cold, captures its optimal basis as warm state, then
    for the instance itself and ``perturbations`` random rhs/objective
    perturbations (the §5.3 reuse regime: same constraint matrix,
    moved data) compares a cold solve against a warm dual-simplex
    re-solve from that *original* basis.  Each perturbed instance is
    compared only against its own pair — different perturbations have
    different optima.  An OPTIMAL warm answer that fails the
    from-scratch KKT audit is itself a disagreement (``kind="audit"``):
    in production the cold fallback would mask it, here it must surface.
    """
    report = DifferentialReport(
        problem_name=f"{getattr(lp, 'name', 'lp')}/warm"
    )
    if not _finite_lp_data(lp):
        # NaN/Inf coefficients are the sanitize layer's to reject; an
        # unguarded solve of them returns garbage on *both* lanes, so
        # there is no warm-vs-cold claim to test.
        report.runs.append(
            _run(
                "skipped",
                "rejected",
                note="non-finite input data; repro.guard.sanitize owns this",
            )
        )
        return report
    cold0 = solve_lp(lp)
    run0 = _run("cold[base]", cold0.status, cold0.objective)
    report.runs.append(run0)
    if cold0.status is not LPStatus.OPTIMAL or cold0.basis is None:
        return report
    sf0 = lp.to_standard_form()
    state = state_from_result(sf0, cold0)

    def check_pair(tag: str, instance: LinearProgram, cold_run: SolverRun) -> None:
        sf = instance.to_standard_form()
        warm_name = f"warm[{tag}]"
        if sf.a.shape != sf0.a.shape:
            report.runs.append(
                _run(warm_name, "skipped", note="structure changed; warm state not applicable")
            )
            return
        outcome = warm_resolve(sf, state)
        if outcome is None:
            report.runs.append(
                _run(warm_name, "unusable", note="warm state could not seed the re-solve")
            )
            return
        if outcome.audit_failed:
            report.runs.append(
                _run(
                    warm_name,
                    "audit_failed",
                    outcome.result.objective,
                    note="OPTIMAL answer failed the from-scratch KKT audit",
                )
            )
            report.disagreements.append(
                Disagreement(
                    left=cold_run.name,
                    right=warm_name,
                    kind="audit",
                    left_value=cold_run.status,
                    right_value="audit_failed",
                )
            )
            return
        res = outcome.result
        warm_run = _run(
            warm_name,
            res.status,
            res.objective,
            note="reused factors" if outcome.reused_factors else "",
        )
        report.runs.append(warm_run)
        # Per instance, not all-pairs: each perturbed problem has its
        # own optimum, so only its own cold/warm runs may be compared.
        report._compare(cold_run, warm_run)

    check_pair("base", lp, run0)

    rng = np.random.default_rng(seed)
    for i in range(perturbations):
        b_ub = None if lp.b_ub is None else np.array(lp.b_ub, dtype=np.float64)
        b_eq = None if lp.b_eq is None else np.array(lp.b_eq, dtype=np.float64)
        c = np.array(lp.c, dtype=np.float64)
        if i % 2 == 0:
            # rhs move: additive noise scaled to each row's magnitude.
            if b_ub is not None:
                b_ub += WARM_PERTURBATION_SCALE * rng.uniform(-1, 1, b_ub.shape) * (
                    1.0 + np.abs(b_ub)
                )
            if b_eq is not None:
                b_eq += WARM_PERTURBATION_SCALE * rng.uniform(-1, 1, b_eq.shape) * (
                    1.0 + np.abs(b_eq)
                )
        else:
            # objective move: the dual-feasibility side of the reuse.
            c += WARM_PERTURBATION_SCALE * rng.uniform(-1, 1, c.shape) * (1.0 + np.abs(c))
        perturbed = LinearProgram(
            c=c,
            a_ub=lp.a_ub,
            b_ub=b_ub,
            a_eq=lp.a_eq,
            b_eq=b_eq,
            lb=lp.lb,
            ub=lp.ub,
        )
        cold_i = solve_lp(perturbed)
        cold_run = _run(f"cold[{i}]", cold_i.status, cold_i.objective)
        report.runs.append(cold_run)
        check_pair(str(i), perturbed, cold_run)
    return report

