"""repro.api — the single front door for solving LPs and MIPs.

Historically the repo grew three solve entry points: direct
:class:`repro.mip.solver.BranchAndBoundSolver` construction, a one-call
strategy runner, and the serving layer's internal per-member path.
:func:`solve` consolidates them:

    from repro.api import solve, SolveOptions

    report = solve(problem)                                  # host-exact
    report = solve(problem, SolveOptions(strategy="hybrid")) # metered §5
    report = solve(problem, SolveOptions(trace=True))        # + timeline

Strategy names resolve through :mod:`repro.strategies.registry`; the
CLI and :class:`repro.serve.SolveService` both route through here, so a
new registered engine is immediately reachable from every surface.
Every MIP, whatever the surface, is searched by the one
:class:`~repro.mip.solver.BranchAndBoundSolver` loop: the serving
layer's ``device=`` + ``mip_node_batch=k`` path only swaps in the
width-k round engine of :mod:`repro.mip.batch_solver` (reported as
``strategy == "batched_node"``), so it checkpoints, resumes, traces and
derives statuses exactly like a registered strategy.

:class:`SolveReport` is the one result shape — status, objective,
incumbent, bounds, per-device metrics, and the trace id — with
``to_dict()`` mirroring :meth:`StrategyReport.to_dict` and
:meth:`repro.serve.SolveResponse.to_dict`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Union

import numpy as np

from repro import obs
from repro.device.gpu import Device
from repro.device import kernels as K
from repro.errors import FaultError, NumericalInstabilityError, ReproError
from repro.faults import injector as faults
from repro.guard.budget import DeadlineBudget, GuardContext, guarding
from repro.faults.plan import SITE_NODE, FaultPlan
from repro.lp.problem import LinearProgram
from repro.lp.result import LPResult, LPStatus
from repro.lp.simplex import solve_standard_form
from repro.mip.problem import MIPProblem
from repro.mip.portfolio import PortfolioOptions, run_portfolio
from repro.mip.result import MIPResult
from repro.mip.solver import BranchAndBoundSolver, ExecutionEngine, SolverOptions
from repro.strategies import registry

Problem = Union[LinearProgram, MIPProblem]

#: Strategy label of the serving layer's device + ``mip_node_batch`` path.
_BATCHED_NODE = "batched_node"

class SolveMode(enum.Enum):
    """Quality-vs-latency contract for a MIP solve.

    - ``EXACT`` — branch and bound to proven optimality (the historical
      behaviour, and the only mode plain LPs accept).
    - ``HEURISTIC_FIRST`` — run the batched primal-heuristic portfolio
      (:mod:`repro.mip.portfolio`) before branch and bound; its best
      certified incumbent pre-prunes the tree, and ``gap_target`` (when
      given) relaxes the proof so the search can stop early.
    - ``HEURISTIC_ONLY`` — portfolio only, no tree search.  Returns the
      best certified incumbent with an honest gap against the root
      relaxation's dual bound (``inf`` when the relaxation is unbounded),
      status ``"heuristic"`` or ``"no_incumbent"``.
    """

    EXACT = "exact"
    HEURISTIC_FIRST = "heuristic_first"
    HEURISTIC_ONLY = "heuristic_only"


@dataclass
class SolveOptions:
    """Everything :func:`solve` needs beyond the problem itself."""

    #: Registered strategy name ("direct" = exact host engine, free).
    strategy: str = "direct"
    #: Branch-and-cut configuration (ignored for plain LPs).
    solver: SolverOptions = field(default_factory=SolverOptions)
    #: Explicit engine instance; overrides ``strategy`` when given.
    engine: Optional[ExecutionEngine] = None
    #: Charge the solve's kernel stream to this simulated device
    #: (the serving layer's per-member path).
    device: Optional[Device] = None
    #: With ``device``: round width of the B&B driver — node LPs solved
    #: per batched device round (0 = one node at a time on the chosen
    #: engine).
    mip_node_batch: int = 0
    #: Install a fresh tracer for this call when none is active; the
    #: tracer is attached to the report for export.
    trace: bool = False
    #: Seeded fault-injection plan for this call (see :mod:`repro.faults`).
    #: Installs a fresh injector when none is active; the final fault
    #: accounting lands in ``SolveReport.metrics["faults"]``.
    fault_plan: Optional[FaultPlan] = None
    #: Host-seconds budget for this call.  Installs a guard context (or
    #: adds a budget to the active one) so a mid-solve expiry returns a
    #: structured anytime report — status ``"time_limit"``, best
    #: incumbent, certified dual bound, gap — instead of hanging.
    deadline: Optional[float] = None
    #: Run the problem sanitizer first: "repair", "warn", or "reject"
    #: (see :mod:`repro.guard.sanitize`).  The sanitation report lands
    #: in ``SolveReport.metrics["sanitize"]``.
    sanitize: Optional[str] = None
    #: Quality-vs-latency contract (see :class:`SolveMode`); accepts the
    #: enum or its string value.  Non-exact modes apply to MIPs only.
    mode: Union[SolveMode, str] = SolveMode.EXACT
    #: Relative-gap goal for the non-exact modes.  ``heuristic_first``
    #: folds it into the branch-and-bound stopping gap;
    #: ``heuristic_only`` reports whether the portfolio met it
    #: (``metrics["portfolio"]["gap_target_met"]``).  Optional: without
    #: it, heuristic_first proves full optimality and heuristic_only
    #: simply returns its best certified incumbent.
    gap_target: Optional[float] = None
    #: Portfolio configuration for the non-exact modes (defaulted when
    #: omitted).  Takes precedence over ``solver.portfolio``.
    portfolio: Optional[PortfolioOptions] = None

    def __post_init__(self):
        if isinstance(self.mode, str):
            try:
                self.mode = SolveMode(self.mode)
            except ValueError:
                valid = ", ".join(repr(m.value) for m in SolveMode)
                raise ReproError(
                    f"unknown solve mode {self.mode!r}; valid modes are {valid}"
                ) from None
        if self.gap_target is not None:
            if not isinstance(self.gap_target, (int, float)) or isinstance(
                self.gap_target, bool
            ):
                raise ReproError(
                    f"gap_target must be a number, got {self.gap_target!r}"
                )
            if not np.isfinite(self.gap_target) or self.gap_target < 0:
                raise ReproError(
                    "gap_target must be a finite non-negative relative gap "
                    f"(e.g. 0.01 for 1%), got {self.gap_target!r}"
                )
            if self.mode is SolveMode.EXACT:
                raise ReproError(
                    "gap_target only applies to mode='heuristic_first' or "
                    "'heuristic_only'; for exact solves set "
                    "SolverOptions.mip_gap instead"
                )
        if self.deadline is not None and not self.deadline > 0:
            raise ReproError(
                f"deadline must be positive seconds, got {self.deadline!r}"
            )
        if self.mip_node_batch < 0:
            raise ReproError(
                f"mip_node_batch must be non-negative, got {self.mip_node_batch!r}"
            )
        if self.sanitize is not None and self.sanitize not in (
            "repair", "warn", "reject"
        ):
            raise ReproError(
                "sanitize must be one of 'repair', 'warn', 'reject', "
                f"got {self.sanitize!r}"
            )


@dataclass
class SolveReport:
    """Uniform outcome of one :func:`solve` call."""

    status: str
    objective: float
    x: Optional[np.ndarray]
    strategy: str
    #: :class:`SolveMode` value this report was produced under.
    mode: str = SolveMode.EXACT.value
    trace_id: str = ""
    best_bound: float = float("inf")
    gap: float = float("inf")
    nodes: int = 0
    lp_iterations: int = 0
    #: Simulated seconds on the metered device(s) (0 for host-exact runs).
    makespan_seconds: float = 0.0
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: Underlying raw results, for callers that need full detail.
    result: Optional[MIPResult] = None
    lp_result: Optional[LPResult] = None
    strategy_report: Optional[Any] = None
    #: The tracer installed by ``SolveOptions.trace`` (None otherwise).
    tracer: Optional[obs.Tracer] = None

    @property
    def ok(self) -> bool:
        """True when the solver proved optimality."""
        return self.status == "optimal"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly summary (:func:`repro.reporting.report_dict` shape)."""
        from repro.reporting import report_dict

        return report_dict(
            status=self.status,
            objective=self.objective,
            strategy=self.strategy,
            mode=self.mode,
            trace_id=self.trace_id,
            best_bound=self.best_bound,
            gap=self.gap,
            nodes=self.nodes,
            lp_iterations=self.lp_iterations,
            makespan_seconds=self.makespan_seconds,
            metrics=self.metrics,
        )


def solve(problem: Problem, options: Optional[SolveOptions] = None) -> SolveReport:
    """Solve an LP or MIP through the strategy registry.

    This is the path the CLI's ``solve``, the differential lanes, and the
    serving layer all share.  Raises :class:`repro.errors.ReproError`
    on unknown strategy names.
    """
    options = options or SolveOptions()
    sanitize_summary = None
    if options.sanitize is not None:
        from repro.guard.sanitize import SanitizePolicy, sanitize_problem

        san = sanitize_problem(problem, policy=SanitizePolicy(options.sanitize))
        sanitize_summary = san.to_dict()
        if san.verdict == "infeasible":
            report = SolveReport(
                status="infeasible",
                objective=float("nan"),
                x=None,
                strategy=options.strategy,
                best_bound=float("-inf"),
            )
            report.metrics["sanitize"] = sanitize_summary
            return report
        problem = san.problem
        options = replace(options, sanitize=None)
    if options.deadline is not None:
        ctx = GuardContext(
            budgets=[DeadlineBudget(options.deadline, label="api")]
        )
        with guarding(ctx):
            report = solve(problem, replace(options, deadline=None))
        if ctx.events:
            report.metrics["guard"] = ctx.summary()
        if sanitize_summary is not None:
            report.metrics["sanitize"] = sanitize_summary
        return report
    if options.fault_plan is not None and faults.active() is None:
        with faults.injecting(options.fault_plan):
            report = solve(problem, replace(options, fault_plan=None))
            if sanitize_summary is not None:
                report.metrics["sanitize"] = sanitize_summary
            return report
    if options.trace and obs.active() is None:
        with obs.tracing() as tracer:
            report = _solve(problem, options)
            report.tracer = tracer
            report.trace_id = tracer.trace_id
            if sanitize_summary is not None:
                report.metrics["sanitize"] = sanitize_summary
            return report
    report = _solve(problem, options)
    tracer = obs.active()
    if tracer is not None and not report.trace_id:
        report.trace_id = tracer.trace_id
    if sanitize_summary is not None:
        report.metrics["sanitize"] = sanitize_summary
    return report


def _fault_metrics(metrics: Dict[str, Any]) -> Dict[str, Any]:
    """Attach the active injector's accounting under ``metrics['faults']``."""
    injector = faults.active()
    if injector is not None and injector.counts()["injected"]:
        metrics["faults"] = injector.counts()
    return metrics


def _solve(problem: Problem, options: SolveOptions) -> SolveReport:
    if isinstance(problem, MIPProblem):
        if options.mode is SolveMode.HEURISTIC_ONLY:
            return _solve_mip_heuristic(problem, options)
        if options.mode is SolveMode.HEURISTIC_FIRST:
            options = _with_heuristic_first(options)
        if options.mip_node_batch > 0 and options.device is not None:
            # The serving layer's per-member path.  Not a registered
            # strategy, so no degradation chain: a fault propagates to
            # the worker pool, which requeues the member.
            return _run_mip_engine(problem, options, _BATCHED_NODE)
        return _solve_mip(problem, options)
    if options.mode is not SolveMode.EXACT:
        raise ReproError(
            f"mode={options.mode.value!r} applies to MIPs only; plain LPs "
            "always solve exactly (use mode='exact' or omit it)"
        )
    return _solve_lp(problem, options)


def _portfolio_options(options: SolveOptions) -> PortfolioOptions:
    """The portfolio configuration a non-exact mode should run with."""
    return options.portfolio or options.solver.portfolio or PortfolioOptions()


def _with_heuristic_first(options: SolveOptions) -> SolveOptions:
    """Rewrite options so branch and bound runs the portfolio phase first.

    The portfolio's best certified incumbent seeds the tree as a pruning
    bound; ``gap_target`` (when set) is folded into the branch-and-bound
    stopping gap so the search may halt as soon as the bound proof is
    good enough.
    """
    solver = replace(options.solver, portfolio=_portfolio_options(options))
    if options.gap_target is not None and options.gap_target > solver.mip_gap:
        solver = replace(solver, mip_gap=options.gap_target)
    return replace(options, solver=solver)


def _solve_mip_heuristic(problem: MIPProblem, options: SolveOptions) -> SolveReport:
    """``heuristic_only``: the portfolio alone, no tree search.

    Every incumbent is exact-rationally certified inside the portfolio;
    the reported gap is measured against the root relaxation's dual
    bound (``inf`` when that bound is unavailable), so it is honest but
    loose.  Status is ``"heuristic"`` when a certified incumbent is in
    hand, ``"infeasible"`` when the root relaxation proves the MIP
    infeasible, and ``"no_incumbent"`` otherwise.
    """
    device = options.device
    result = run_portfolio(problem, _portfolio_options(options), device=device)
    metrics = _fault_metrics({} if device is None else device.metrics.to_dict())
    summary = result.summary()
    gap = float(result.gap)
    if options.gap_target is not None:
        summary["gap_target"] = float(options.gap_target)
        summary["gap_target_met"] = bool(gap <= options.gap_target)
    metrics["portfolio"] = summary
    if result.best is not None:
        status = "heuristic"
        objective: float = float(result.best.objective)
        x: Optional[np.ndarray] = result.best.x
    elif result.relaxation_status == "infeasible":
        status, objective, x = "infeasible", float("nan"), None
    else:
        status, objective, x = "no_incumbent", float("nan"), None
    return SolveReport(
        status=status,
        objective=objective,
        x=x,
        strategy="portfolio",
        mode=SolveMode.HEURISTIC_ONLY.value,
        best_bound=float(result.dual_bound),
        gap=gap,
        lp_iterations=result.lp_iterations,
        makespan_seconds=0.0 if device is None else device.clock.now,
        metrics=metrics,
    )


def _solve_mip(problem: MIPProblem, options: SolveOptions) -> SolveReport:
    """MIP path: degradation loop around one engine run per strategy.

    An unrecoverable :class:`FaultError` from a metered engine degrades
    to the strategy's registered fallback (``plan.degrade`` permitting)
    and the faults it absorbed are resolved as *tolerated*; the chain
    ends at ``"direct"``, which touches no simulated device.
    """
    injector = faults.active()
    strategy = options.strategy
    chain = [strategy]
    while True:
        try:
            report = _run_mip_engine(problem, options, strategy)
        except NumericalInstabilityError as exc:
            # Same ladder as fault degradation, but for numerics: hand
            # the instance to the strategy's registered fallback; the
            # chain ends at "direct", the exact host engine.
            fallback = (
                registry.fallback_for(strategy) if options.engine is None else None
            )
            if fallback is None:
                raise
            obs.event(
                "guard.degrade", category="guard",
                from_strategy=strategy, to_strategy=fallback,
                error=type(exc).__name__, signal=exc.signal,
            )
            strategy = fallback
            chain.append(fallback)
            continue
        except FaultError as exc:
            fallback = (
                registry.fallback_for(strategy)
                if options.engine is None
                and injector is not None
                and injector.plan.degrade
                else None
            )
            if fallback is None:
                if injector is not None:
                    injector.resolve_escaped(exc.fault_count, site="strategy")
                raise
            injector.resolve_tolerated(exc.fault_count, site="strategy")
            injector.metrics.inc("fault.degraded")
            obs.event(
                "fault.degrade", category="fault",
                from_strategy=strategy, to_strategy=fallback,
                error=type(exc).__name__,
            )
            strategy = fallback
            chain.append(fallback)
            continue
        if len(chain) > 1:
            report.metrics["degradation"] = {
                "requested": chain[0],
                "used": strategy,
                "chain": list(chain),
            }
            _fault_metrics(report.metrics)
        return report


def _mip_solver(
    problem: MIPProblem, options: SolveOptions, strategy: str
) -> BranchAndBoundSolver:
    """The configured, not yet run, driver for ``strategy``."""
    if strategy == _BATCHED_NODE:
        from repro.mip.batch_solver import BatchedNodeSolver

        return BatchedNodeSolver(
            problem,
            options.solver,
            batch_size=options.mip_node_batch,
            device=options.device,
        )
    engine = options.engine
    if engine is None:
        engine = registry.engine_for(strategy)
        if options.solver.node_lp != "simplex" and engine.node_lp == "simplex":
            # Honor SolverOptions.node_lp on registry engines that don't
            # pin their own node engine (the pdhg strategies already do);
            # one that cannot price it (big_mip) refuses at begin_search.
            engine.node_lp = options.solver.node_lp

    solver_options = options.solver
    if solver_options.portfolio is None and getattr(engine, "wants_portfolio", False):
        # The "portfolio" strategy asks for the heuristic phase even when
        # the caller didn't configure one explicitly.
        solver_options = replace(solver_options, portfolio=PortfolioOptions())
    return BranchAndBoundSolver(problem, solver_options, engine=engine)


def _run_mip_engine(
    problem: MIPProblem, options: SolveOptions, strategy: str
) -> SolveReport:
    solver = _mip_solver(problem, options, strategy)
    engine = solver.engine

    injector = faults.active()
    resume_stats = None
    if injector is not None and injector.plan.touches(SITE_NODE):
        from repro.faults.recovery import solve_with_checkpoint_resume

        result, resume_stats = solve_with_checkpoint_resume(
            problem, solver_options=solver.options, engine=engine
        )
    else:
        result = solver.solve()

    strategy_report = None
    if hasattr(engine, "report"):
        strategy_report = engine.report(result, strategy=strategy)
    metrics: Dict[str, Any] = {}
    device = getattr(engine, "device", None)
    if device is not None:
        metrics = device.metrics.to_dict()
    _fault_metrics(metrics)
    if resume_stats is not None and resume_stats.restarts:
        metrics["resume"] = {
            "restarts": resume_stats.restarts,
            "checkpoints": resume_stats.checkpoints,
        }
    if solver.portfolio_result is not None:
        metrics["portfolio"] = solver.portfolio_result.summary()

    report = SolveReport(
        status=result.status.value,
        objective=float(result.objective),
        x=result.x,
        strategy=strategy,
        mode=options.mode.value,
        best_bound=float(result.best_bound),
        gap=float(result.gap),
        nodes=result.stats.nodes_processed,
        lp_iterations=result.stats.lp_iterations,
        makespan_seconds=engine.elapsed_seconds,
        metrics=metrics,
        result=result,
        strategy_report=strategy_report,
    )
    tracer = obs.active()
    if tracer is not None:
        report.trace_id = tracer.trace_id
        if strategy_report is not None:
            strategy_report.trace_id = tracer.trace_id
    return report


def _solve_lp(problem: LinearProgram, options: SolveOptions) -> SolveReport:
    """Plain LP path; with a device, charge the serial small-LP stream."""
    sf = problem.to_standard_form()
    result = solve_standard_form(sf)
    escalation = None
    if result.status is LPStatus.NUMERICAL:
        from repro.guard.escalate import escalate_lp

        outcome = escalate_lp(sf, first=result)
        result = outcome.result
        escalation = outcome.steps
    device = options.device
    if device is not None:
        # One small-LP kernel stream (factor + per-iteration solves),
        # the serial shape the serving layer's E7 benchmark measures.
        K.launch_lp_stream(device, sf.m, sf.n, result.iterations)
    x = None
    if result.status is LPStatus.OPTIMAL and result.x_standard is not None:
        x = sf.recover_x(result.x_standard)
    metrics = _fault_metrics({} if device is None else device.metrics.to_dict())
    if escalation:
        metrics["escalation"] = list(escalation)
    return SolveReport(
        status=result.status.value,
        objective=float(result.objective),
        x=x,
        strategy="lp",
        lp_iterations=result.iterations,
        makespan_seconds=0.0 if device is None else device.clock.now,
        metrics=metrics,
        lp_result=result,
    )
