"""The branch-and-cut driver.

:class:`BranchAndBoundSolver` runs the search loop of paper §2.1 over the
:class:`repro.mip.tree.BBTree`, with every linear-algebra-heavy step
routed through an :class:`ExecutionEngine`.  The engine holds the one
node-LP path — PDHG or simplex, warm or cold, the cut re-solve and the
fixing pass — and prices it through the hooks an engine sets:

- ``lp_hook`` — the production node LPs, their cut re-solves and the
  node's reduced-cost fixing pass;
- ``probe_hook`` — strong-branching probes;
- ``pdhg_hook`` — first-order node solves (``node_lp="pdhg"``): every
  round's node LPs, each posed as its own LP, advance as one lockstep
  PDHG batch (width 1 is a round of one);
- ``ship_cuts`` — moving a cut round's rows to where the LPs run;
- ``hand_off_root`` — moving the root relaxation's answer to where the
  heuristic portfolio runs, which starts from it;
- ``begin_node`` — called with the tree distance from the previously
  evaluated node, so device-backed engines can charge what a node ships
  (paper §5.3).

The default engine computes everything host-side with no cost model;
:mod:`repro.strategies` subclasses it to realize the paper's four
parallel execution strategies with full device/transfer accounting.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.config import DEFAULT_TOLERANCES
from repro.errors import (
    MIPError,
    NumericalInstabilityError,
    ReproError,
    SolverCrashError,
)
from repro.faults.injector import active as fault_active
from repro.guard import budget as guard_budget
from repro.lp.pdhg import NULL_PDHG_HOOK, PDHGCostHook, PDHGOptions
from repro.lp.pdhg_batch import solve_lp_pdhg_batch
from repro.lp.problem import StandardFormLP
from repro.lp.result import LPResult, LPStatus
from repro.lp.sensitivity import reduced_cost_fixing
from repro.lp.simplex import NULL_HOOK, CostHook, SimplexOptions
from repro.lp.warm import WarmSolveOutcome, WarmStartState, solve_warm_or_cold
from repro.mip.branching import BRANCHING_RULES, BranchingRule, make_branching
from repro.mip.cuts.cover import cover_cuts
from repro.mip.cuts.gomory import gomory_mixed_integer_cuts
from repro.mip.cuts.mir import mir_cuts
from repro.mip.cuts.pool import CutPool
from repro.mip.node_selection import SELECTORS, make_selector
from repro.mip.portfolio import (
    PortfolioOptions,
    PortfolioResult,
    round_to_feasible,
    run_portfolio,
)
from repro.mip.problem import MIPProblem
from repro.mip.propagation import Propagator
from repro.mip.result import MIPResult, MIPStats, MIPStatus
from repro.mip.tree import BBTree, BoundChange, NodeTag
from repro import obs

#: A strong-branching probe's cold solve: at most 200 iterations of the
#: dual loop from the slack basis (or of the primal, if that is refused).
PROBE_OPTIONS = SimplexOptions(max_iterations=200)
#: Cuts a round keeps (the pool's best by efficacy).
CUTS_PER_ROUND = 8
#: Only generate cuts at nodes this shallow (root = 0).
CUT_DEPTH_LIMIT = 4
#: Nodes whose warm state stays live (inverse + iterate): the most
#: recently stored or read.  Past this, the oldest is demoted to its
#: basis alone, so a deep tree holds at most this many dense inverses.
WARM_STATES_KEPT = 64


class ExecutionEngine:
    """LP backend + cost metering for the branch-and-cut loop.

    The node-LP path is written once, here; an engine says where its LPs
    run and what they cost by setting ``lp_hook``, ``probe_hook`` and
    ``pdhg_hook`` and by overriding ``begin_node`` / ``ship_cuts`` for
    what crosses its link (``hand_off_root`` too).  The default is exact
    and free (no simulated costs, no devices).
    """

    #: Open nodes the driver pops per round.  An engine that batches
    #: node LPs (:mod:`repro.mip.batch_solver`) raises it; everything
    #: else evaluates one node at a time.
    round_width = 1

    #: Where the production LPs, their cut re-solves and the fixing pass
    #: are priced; where the strong-branching probes are; where the
    #: first-order node solves are.
    lp_hook: CostHook = NULL_HOOK
    probe_hook: CostHook = NULL_HOOK
    pdhg_hook: PDHGCostHook = NULL_PDHG_HOOK

    #: The simulated devices the search charges, synchronised at its end
    #: and timed together: the slowest one is the makespan.
    devices: tuple = ()

    def __init__(self, node_lp: str = "simplex"):
        #: Node-relaxation engine: "simplex" (exact vertex solves) or
        #: "pdhg" (restarted first-order solves with tolerance-padded
        #: bounds; non-optimal PDHG outcomes fall back to simplex so
        #: INFEASIBLE/UNBOUNDED statuses stay exact).
        self.node_lp = node_lp
        self.pdhg_options = PDHGOptions()
        #: First-order work counters, surfaced on the first device at the
        #: end of a search as ``pdhg.<key>``.
        self.pdhg_stats = {"solves": 0, "fallbacks": 0, "iterations": 0, "restarts": 0}

    # -- lifecycle hooks ------------------------------------------------------

    def begin_search(self, problem: MIPProblem, sf_root: StandardFormLP) -> None:
        """Called once before the first node."""

    def begin_node(self, node_id: int, tree_distance: Optional[int]) -> None:
        """Called before each node; distance is from the previous node."""

    def ship_cuts(self, cut_bytes: int) -> None:
        """Move a cut round's rows to where the LPs run (free here)."""

    def hand_off_root(self, result: LPResult) -> None:
        """Make the root relaxation's answer available where the
        portfolio runs, before it starts (free here: one place)."""

    def end_search(self) -> None:
        """Called when the search loop exits."""
        if self.node_lp == "pdhg" and self.devices:
            # The first-order work counters, next to the kernel counts.
            counters = self.devices[0].metrics.counters
            for key, value in self.pdhg_stats.items():
                counters[f"pdhg.{key}"] = value
        for device in self.devices:
            device.synchronize()

    # -- LP services ----------------------------------------------------------

    def solve_relaxation(
        self,
        sf: StandardFormLP,
        warm: Optional[WarmStartState] = None,
        probe: bool = False,
    ) -> WarmSolveOutcome:
        """Solve a node relaxation exactly, warm when ``warm`` is usable.

        This is the node LPs' path and their cut re-solves' (from the
        bordered basis).  A strong-branching probe is a truncated exact
        solve on ``probe_hook``, never audited; its state is the caller's
        to drop.
        """
        if probe:
            return solve_warm_or_cold(
                sf, warm, self.probe_hook, audit=False, cold_options=PROBE_OPTIONS
            )
        return solve_warm_or_cold(sf, warm, self.lp_hook)

    def solve_round(self, members) -> List[WarmSolveOutcome]:
        """Solve one round of node relaxations, in pop order.

        ``members`` is a list of ``(node_lp, sf, warm)``; the result is
        one :class:`~repro.lp.warm.WarmSolveOutcome` per member.  With
        ``node_lp="pdhg"`` the round is one first-order batch and only
        the members it leaves short of OPTIMAL go to :meth:`_simplex_round`.
        """
        if self.node_lp != "pdhg":
            return self._simplex_round(members)
        first = self._pdhg_round([lp for lp, _, _ in members])
        exact = iter(self._simplex_round(
            [member for member, solved in zip(members, first) if solved is None]
        ))
        return [solved or next(exact) for solved in first]

    def _simplex_round(self, members) -> List[WarmSolveOutcome]:
        """A round's exact solves: each member warm or cold, in order."""
        return [self.solve_relaxation(sf, warm) for _, sf, warm in members]

    def _pdhg_round(self, lps: list) -> list:
        """A round's node LPs as one lockstep PDHG batch, on ``pdhg_hook``.

        Every node LP of a tree has the same saddle shape (bounds are
        projections, not rows), so the batch shares K.  Policy (see
        ``docs/first_order_lp.md``): only an eps-KKT OPTIMAL member is
        trusted, and its bound is the tolerance-padded one
        (:meth:`repro.lp.pdhg.PDHGResult.upper_bound`), so pruning against
        an incumbent can never cut off the true optimum.  Any other member
        is ``None``: the caller re-solves it exactly, which keeps
        INFEASIBLE / UNBOUNDED vertex-grade.  First-order solves reuse
        nothing warm and leave nothing behind: a trusted member is
        neither a warm nor a cold start and takes no pivots (its sweeps
        are ``pdhg_stats["iterations"]``).
        """
        batch = solve_lp_pdhg_batch(lps, self.pdhg_options, self.pdhg_hook)
        stats = self.pdhg_stats
        stats["solves"] += len(lps)
        stats["iterations"] += int(batch.member_iterations.sum())
        stats["restarts"] += batch.restarts
        solved = [
            WarmSolveOutcome(LPResult(status, float(bound), x), first_order=True)
            if status is LPStatus.OPTIMAL else None
            for status, bound, x in zip(batch.statuses, batch.bounds, batch.x)
        ]
        stats["fallbacks"] += sum(member is None for member in solved)
        return solved

    # -- reporting -------------------------------------------------------------

    @property
    def elapsed_seconds(self) -> float:
        """Simulated seconds consumed: the slowest device's clock (0 if free)."""
        return max((device.clock.now for device in self.devices), default=0.0)

    def platform_summary(self) -> Dict[str, float]:
        """The devices' :meth:`~repro.device.gpu.Device.summary` folded into
        one platform account: counts, bytes and energy summed over the
        devices, ``mem_peak_bytes`` the largest one device reached."""
        summaries = [device.summary() for device in self.devices]
        platform = {
            key: sum(s[key] for s in summaries)
            for key in ("kernels", "h2d", "d2h", "bytes_moved")
        }
        platform["mem_peak_bytes"] = max(
            (s["mem_peak_bytes"] for s in summaries), default=0
        )
        platform["energy_joules"] = sum(s["energy_joules"] for s in summaries)
        return platform


@dataclass
class SolverOptions:
    """Branch-and-cut configuration."""

    branching: str = "pseudocost"
    node_selection: str = "best_first"
    #: Cut-generation rounds per node (0 disables branch-and-cut).
    cut_rounds: int = 0
    use_rounding_heuristic: bool = True
    node_limit: int = 200_000
    #: Relative optimality gap for early stop.
    mip_gap: float = 1e-6
    keep_tree: bool = False
    #: Node-relaxation engine for the default host engine: "simplex"
    #: or "pdhg" (engines passed explicitly keep their own setting).
    node_lp: str = "simplex"
    #: Warm-start children from the parent basis (§5.3 reuse).
    warm_start: bool = True
    #: Keep up to this many distinct improving solutions (solution pool).
    solution_pool_size: int = 1
    #: Capture a consistent snapshot every N processed nodes
    #: (0 disables; requires ``checkpoint_fn``).
    checkpoint_every: int = 0
    #: Sink for captured :class:`repro.mip.snapshot.SearchSnapshot`\ s;
    #: a crash-recovery driver resumes from the latest one delivered.
    checkpoint_fn: Optional[Callable] = None
    #: Run the batched primal-heuristic portfolio
    #: (:mod:`repro.mip.portfolio`) before the tree search; its best
    #: certified incumbent seeds the pruning bound (None disables).
    portfolio: Optional[PortfolioOptions] = None

    def __post_init__(self):
        if self.branching not in BRANCHING_RULES:
            raise ReproError(
                f"branching must be one of {sorted(BRANCHING_RULES)}, "
                f"got {self.branching!r}"
            )
        if self.node_selection not in SELECTORS:
            raise ReproError(
                f"node_selection must be one of {sorted(SELECTORS)}, "
                f"got {self.node_selection!r}"
            )
        if self.node_limit <= 0:
            raise ReproError(
                f"node_limit must be positive, got {self.node_limit!r}"
            )
        if not self.mip_gap >= 0:
            raise ReproError(
                f"mip_gap must be non-negative, got {self.mip_gap!r}"
            )
        if self.cut_rounds < 0:
            raise ReproError(
                f"cut_rounds must be non-negative, got {self.cut_rounds!r}"
            )
        if self.solution_pool_size < 1:
            raise ReproError(
                "solution_pool_size must be at least 1, "
                f"got {self.solution_pool_size!r}"
            )
        if self.checkpoint_every < 0:
            raise ReproError(
                f"checkpoint_every must be non-negative, got {self.checkpoint_every!r}"
            )
        if self.node_lp not in ("simplex", "pdhg"):
            raise ReproError(
                f"node_lp must be 'simplex' or 'pdhg', got {self.node_lp!r}"
            )


class BranchAndBoundSolver:
    """Branch-and-cut for :class:`MIPProblem` (maximization)."""

    def __init__(
        self,
        problem: MIPProblem,
        options: Optional[SolverOptions] = None,
        engine: Optional[ExecutionEngine] = None,
        root_warm: Optional[WarmStartState] = None,
    ):
        self.problem = problem
        self.options = options or SolverOptions()
        self.engine = engine or ExecutionEngine(node_lp=self.options.node_lp)
        #: The state the root relaxation re-solves from (an LNS sub-MIP
        #: starts from its parent MIP's root); None: the root is cold.
        self.root_warm = root_warm
        self.stats = MIPStats()
        #: Result of the pre-search portfolio phase (None = not run).
        self.portfolio_result: Optional[PortfolioResult] = None

    def solve(self) -> MIPResult:
        """Run the search to optimality, infeasibility, or the node limit."""
        with obs.span(
            "mip.solve", category="mip",
            n=self.problem.n, integers=self.problem.num_integer,
        ) as sp:
            result = self._solve()
            sp.set(status=result.status.value, nodes=result.stats.nodes_processed)
            return result

    def _solve(self) -> MIPResult:
        problem = self.problem
        options = self.options

        tree = BBTree(problem.relaxation())
        selector = make_selector(options.node_selection, tree)
        propagate = Propagator(problem)
        children: list = []  # what the current round's branchings created
        # Nodes whose warm state is live, least recently stored or read first.
        live_states: "OrderedDict[int, None]" = OrderedDict()

        def keep_live(node_id: int) -> None:
            """Mark a node's state most recent; demote the oldest past the bound."""
            live_states[node_id] = None
            live_states.move_to_end(node_id)
            while len(live_states) > WARM_STATES_KEPT:
                oldest = tree.node(live_states.popitem(last=False)[0])
                oldest.warm = oldest.warm.demoted()
        branching: BranchingRule = make_branching(options.branching)

        incumbent_obj = -np.inf
        incumbent_x: Optional[np.ndarray] = None
        solution_pool: list = []
        last_node: Optional[int] = None

        def offer_solution(obj: float, x: np.ndarray, **source) -> None:
            """Pool a feasible point; adopt it as the incumbent when it
            improves.  ``source`` marks a heuristic's point (and goes on
            its ``mip.incumbent`` event)."""
            nonlocal incumbent_obj, incumbent_x
            solution_pool.append((obj, x.copy()))
            solution_pool.sort(key=lambda t: -t[0])
            del solution_pool[options.solution_pool_size :]
            if obj > incumbent_obj:
                incumbent_obj, incumbent_x = obj, x
                self._note_first_incumbent()
                if source:
                    self.stats.heuristic_solutions += 1
                obs.event("mip.incumbent", category="mip", objective=obj, **source)
                self.stats.incumbent_history.append((self.stats.nodes_processed, obj))

        # The resident matrix holds the real rows only (bounds sit beside
        # it as ``upper``), so it never changes along a path.
        sf_root = tree.node_problem(0).to_standard_form()
        self.engine.begin_search(problem, sf_root)
        # Integer variables keep their one column on every node's form.
        integer_columns = np.where(
            problem.integer & (sf_root.neg_col < 0), sf_root.pos_col, -1
        )

        tree.root.inherited_bound = np.inf
        selector.push(0, np.inf)

        status = None

        def admit(node_id: int):
            """Pre-prune a popped node; a survivor's ``(node_lp, sf, warm)``."""
            nonlocal last_node
            node = tree.node(node_id)

            # Prune on the inherited (parent) bound without touching the LP.
            if self._dominated(node.inherited_bound, incumbent_obj):
                node.tag = NodeTag.PRUNED
                node.lp_bound = node.inherited_bound
                return None

            distance = None if last_node is None else tree.tree_distance(last_node, node_id)
            self.engine.begin_node(node_id, distance)
            if distance is not None:
                self.stats.reuse_distance += distance
                if distance > 1:
                    self.stats.matrix_switches += 1
            last_node = node_id

            node_lp = tree.node_problem(node_id)
            sf = sf_root.rebounded(node_lp)
            warm = None
            if options.warm_start and node.parent_id is None:
                warm = self.root_warm
            elif options.warm_start:
                warm = tree.node(node.parent_id).warm
                if node.parent_id in live_states:
                    live_states.move_to_end(node.parent_id)
            return node_lp, sf, warm

        def process_node(
            node_id: int, node_span, member, solved: WarmSolveOutcome
        ) -> Optional[str]:
            """One solved node's lifecycle; "break" stops after this round."""
            nonlocal status
            node = tree.node(node_id)
            node_lp, sf, _ = member
            res = solved.result
            self.stats.nodes_processed += 1
            self.stats.lp_iterations += solved.pivots
            if solved.warm_used:
                self.stats.warm_starts += 1
                self.stats.warm_pivots += solved.pivots
                if solved.reused_factors:
                    self.stats.warm_factor_reuses += 1
            elif not solved.first_order:
                self.stats.cold_starts += 1
                self.stats.cold_pivots += solved.pivots
                if solved.audit_failed:
                    self.stats.warm_audit_failures += 1

            if res.status is LPStatus.INFEASIBLE:
                node.tag = NodeTag.INFEASIBLE
                return None
            if res.status is LPStatus.UNBOUNDED:
                if node_id == 0:
                    status = MIPStatus.UNBOUNDED
                    return "break"
                raise MIPError("non-root node relaxation unbounded")
            if res.status in (LPStatus.ITERATION_LIMIT, LPStatus.NUMERICAL):
                res = self._escalate_node(sf, res)
                if res.status is LPStatus.INFEASIBLE:
                    node.tag = NodeTag.INFEASIBLE
                    return None
            if res.status is LPStatus.TIME_LIMIT:
                # Anytime stop: leave the node OPEN so active_leaves()
                # keeps its inherited bound in the final dual bound.
                status = MIPStatus.TIME_LIMIT
                return "break"
            if res.status is not LPStatus.OPTIMAL:
                if (
                    res.status is LPStatus.NUMERICAL
                    and incumbent_x is None
                ):
                    # Ladder exhausted and nothing anytime-worthy to
                    # return — let repro.api walk the strategy
                    # degradation chain (a different engine may be
                    # numerically healthier on this instance).
                    raise NumericalInstabilityError(
                        engine=type(self.engine).__name__,
                        signal="numerical",
                        detail=f"node {node_id} LP unrecoverable "
                        "after escalation",
                    )
                # Escalation ladder exhausted; stop with a structured
                # anytime result instead of raising mid-search.
                obs.event(
                    "guard.mip_stop", category="guard",
                    node=node_id, lp_status=res.status.value,
                )
                status = MIPStatus.ITERATION_LIMIT
                return "break"

            node.lp_bound = res.objective
            node.warm = WarmStartState.from_result(sf, res)
            if node.warm is not None:
                keep_live(node_id)
            node_span.set(bound=res.objective)
            self._record_pseudocost(branching, tree, node, res.objective)

            if self._dominated(res.objective, incumbent_obj):
                node.tag = NodeTag.PRUNED
                return None

            # First-order node solves are box-feasible only to eps; clamp
            # into the node's bounds so branching can never create a
            # child with ceil(value) above the variable's upper bound.
            x = res.x if res.x is not None else sf.recover_x(res.x_standard)
            x = x.clip(node_lp.lb, node_lp.ub)
            fractional = problem.fractional_integers(x)
            # Fixing reads the node's own solve: a relaxation of whatever
            # cut rounds add, so its bound and ``d`` stay valid.
            node_res = res

            # Cut rounds (branch-and-cut, §5.2) at shallow nodes.
            if (
                options.cut_rounds > 0
                and fractional.size > 0
                and node.depth <= CUT_DEPTH_LIMIT
            ):
                # Cuts are generated from the node's vertex, appended to
                # its form and re-solved from its basis.
                sf_cut, res_cut = self._run_cut_rounds(sf, res, x)
                if res_cut is not None:
                    res = res_cut
                    node.lp_bound = min(node.lp_bound, res.objective)
                    x = sf_cut.recover_x(res.x_standard).clip(node_lp.lb, node_lp.ub)
                    fractional = problem.fractional_integers(x)
                    if self._dominated(node.lp_bound, incumbent_obj):
                        node.tag = NodeTag.PRUNED
                        return None

            if fractional.size == 0:
                node.tag = NodeTag.FEASIBLE
                offer_solution(problem.objective(x), x)
                return None

            # Primal heuristic: try rounding the fractional point.
            if options.use_rounding_heuristic:
                candidate = round_to_feasible(problem, x)
                if candidate is not None:
                    offer_solution(problem.objective(candidate), candidate, heuristic=True)

            if np.isfinite(incumbent_obj):
                self._fix_by_reduced_cost(
                    node, sf, node_res, incumbent_obj, integer_columns
                )

            # Branch.
            # Probes start from the node's basis alone, as a demoted child does.
            probe = self._make_probe(
                tree, sf_root, node_id, None if node.warm is None else node.warm.demoted()
            )
            var = branching.select(fractional, x, node.lp_bound, probe=probe)
            value = x[var]
            node.tag = NodeTag.BRANCHED
            node.branch_var = var
            for kind, bound in (("ub", np.floor(value)), ("lb", np.ceil(value))):
                child = tree.add_child(
                    node_id,
                    BoundChange(var=var, kind=kind, value=float(bound), parent_value=float(value)),
                )
                child.inherited_bound = node.lp_bound
                children.append(child)
            return None

        # Portfolio phase: batched primal heuristics seed the incumbent
        # (and therefore the pruning bound) before the first node.  The
        # root relaxation is solved once, by the round path, and the
        # portfolio starts from its answer; node 0 then consumes it.
        root_round = None
        if options.portfolio is not None:
            member = admit(0)
            (outcome,) = self.engine.solve_round([member])
            root_round = member, outcome
            self.engine.hand_off_root(outcome.result)
            pr = run_portfolio(
                problem,
                options.portfolio,
                device=getattr(self.engine, "device", None),
                root=(member[1], outcome.result),
            )
            self.portfolio_result = pr
            self.stats.portfolio_restarts = pr.stats.get("restarts", 0)
            self.stats.portfolio_sweeps = pr.stats.get("fj_sweeps", 0)
            self.stats.portfolio_incumbents = len(pr.incumbents)
            self.stats.portfolio_seconds = pr.elapsed_seconds
            self.stats.lp_iterations += pr.lp_iterations
            if pr.best is not None:
                offer_solution(
                    pr.best.objective, pr.best.x.copy(), heuristic=True, source="portfolio"
                )

        injector = fault_active()
        guard_ctx = guard_budget.active()
        checkpoints = 0
        while selector and self.stats.nodes_processed < options.node_limit:
            if guard_ctx is not None and guard_ctx.deadline_hit():
                status = MIPStatus.TIME_LIMIT
                break
            width = min(self.engine.round_width, len(selector))
            popped = [selector.pop() for _ in range(width)]
            children.clear()
            members = {}
            solved = None
            if root_round is not None:
                # Node 0, solved before the portfolio: its round is it alone.
                members[0], root_solved = root_round
                solved, root_round = iter([root_solved]), None
            else:
                for node_id in popped:
                    member = admit(node_id)
                    if member is not None:
                        members[node_id] = member
            # The round's one engine call is made inside its first
            # survivor's span, so node LPs nest under a mip.node span at
            # any width; results come back in pop order.
            stop = False
            for node_id in popped:
                with obs.span("mip.node", category="mip", node=node_id) as node_span:
                    node = tree.node(node_id)
                    node_span.set(depth=node.depth)
                    if node_id in members:
                        if solved is None:
                            solved = iter(self.engine.solve_round(list(members.values())))
                        flow = process_node(
                            node_id, node_span, members[node_id], next(solved)
                        )
                        stop = stop or flow == "break"
                    node_span.set(tag=node.tag.value)
            if children:
                self._propagate_children(propagate, children, selector)
            if stop:
                break
            if (
                options.checkpoint_every
                and options.checkpoint_fn is not None
                and self.stats.nodes_processed // options.checkpoint_every > checkpoints
            ):
                checkpoints = self.stats.nodes_processed // options.checkpoint_every
                from repro.mip.snapshot import capture_snapshot

                options.checkpoint_fn(
                    capture_snapshot(tree, incumbent_obj, incumbent_x)
                )
            # Checkpoint before the kill draws: a crash at node k can
            # always resume from a snapshot taken at or before k.
            if injector is not None:
                for node_id in popped:
                    if injector.node_kill():
                        raise SolverCrashError(node_id)

        self.engine.end_search()
        if root_round is not None:
            # Stopped before node 0 was processed: its pivots still ran.
            self.stats.lp_iterations += root_round[1].pivots

        # Derive the final status and bound.
        open_bounds = [n.inherited_bound for n in tree.active_leaves()]
        if status is MIPStatus.UNBOUNDED:
            result_status = status
            best_bound = np.inf
        elif status is not None and status.anytime:
            result_status = status
            best_bound = max([incumbent_obj] + open_bounds)
        elif selector and self.stats.nodes_processed >= options.node_limit:
            result_status = MIPStatus.NODE_LIMIT
            best_bound = max([incumbent_obj] + open_bounds)
        elif incumbent_x is None:
            result_status = MIPStatus.INFEASIBLE
            best_bound = -np.inf
        else:
            result_status = MIPStatus.OPTIMAL
            best_bound = incumbent_obj

        return MIPResult(
            status=result_status,
            objective=incumbent_obj if incumbent_x is not None else np.nan,
            x=incumbent_x,
            best_bound=best_bound,
            stats=self.stats,
            tree=tree if options.keep_tree else None,
            solution_pool=solution_pool,
        )

    # -- helpers ---------------------------------------------------------------

    def _escalate_node(self, sf, first):
        """Climb the guard ladder for a node LP that came back unusable.

        Driver-level on purpose: recovery here covers every engine's
        node LPs, at any round width.
        """
        from repro.guard.escalate import escalate_lp

        outcome = escalate_lp(sf, self.engine.lp_hook, first=first)
        if outcome.escalated:
            self.stats.escalations += 1
            self.stats.lp_iterations += sum(outcome.iterations)
        return outcome.result

    def _note_first_incumbent(self) -> None:
        """Stamp node/engine-time coordinates of the first incumbent."""
        if self.stats.first_incumbent_nodes < 0:
            self.stats.first_incumbent_nodes = self.stats.nodes_processed
            self.stats.first_incumbent_seconds = self.engine.elapsed_seconds

    def _dominated(self, bound: float, incumbent: float) -> bool:
        """True when a node bound cannot beat the incumbent."""
        if not np.isfinite(bound):
            return False
        threshold = incumbent + max(
            DEFAULT_TOLERANCES.mip_gap_abs, self.options.mip_gap * abs(incumbent)
        )
        return bound <= threshold

    def _fix_by_reduced_cost(
        self,
        node,
        sf: StandardFormLP,
        res: LPResult,
        incumbent: float,
        integer_columns: np.ndarray,
    ) -> None:
        """Record on ``node`` the bounds its LP implies for its subtree.

        Reduced-cost fixing (:func:`repro.lp.sensitivity.reduced_cost_fixing`)
        against the incumbent, on the ``d`` the solve carried — or, where
        it left no iterate (a cold solve), ``c − Aᵀy`` priced once.  A
        first-order solve has no basis and implies nothing here.
        """
        if res.basis is None:
            return
        # Priced wherever the node's production LPs run.
        hook = self.engine.lp_hook
        iterate = None if res.warm is None else res.warm.iterate
        if iterate is not None:
            d = iterate.d
            hook.on_vector_pass(sf.n)
        else:
            # The fixing pass rides in the epilogue of the product giving d.
            hook.on_pricing(sf.m, sf.n, sf.n)
            d = sf.c - sf.a.T @ res.duals
        lb, ub = node.box
        new_lb, new_ub = reduced_cost_fixing(
            d, res.basis, res.at_upper, res.objective - incumbent, lb, ub,
            integer_columns,
        )
        for var in (new_lb > lb).nonzero()[0]:
            node.fixings.append(BoundChange(var=int(var), kind="lb", value=float(new_lb[var])))
        for var in (new_ub < ub).nonzero()[0]:
            node.fixings.append(BoundChange(var=int(var), kind="ub", value=float(new_ub[var])))

    def _propagate_children(
        self, propagate: Propagator, children: list, selector
    ) -> None:
        """Tighten a round's children's boxes through the rows as one
        stack on ``lp_hook``, then push them in creation order.

        A child whose box empties is pruned without an LP: the box may
        hold reduced-cost fixings (or a branch a cut round moved ``x``
        past), so it holds no point that beats the incumbent.  Any other
        child's propagated box becomes its read-only ``box``.
        """
        lb, ub, feasible = propagate(
            [child.box[0] for child in children],
            [child.box[1] for child in children],
            self.engine.lp_hook,
        )
        lb.flags.writeable = ub.flags.writeable = False
        for child, child_lb, child_ub, ok in zip(children, lb, ub, feasible):
            if not ok:
                child.tag = NodeTag.PRUNED
                child.lp_bound = child.inherited_bound
                continue
            child.box = child_lb, child_ub
            selector.push(child.node_id, child.inherited_bound)

    def _record_pseudocost(
        self, branching: BranchingRule, tree: BBTree, node, child_bound: float
    ) -> None:
        if node.parent_id is None or node.change is None:
            return
        parent = tree.node(node.parent_id)
        if not np.isfinite(parent.lp_bound):
            return
        change: BoundChange = node.change
        degradation = parent.lp_bound - child_bound
        f = change.parent_value - np.floor(change.parent_value)
        if change.kind == "lb":  # rounded up
            branching.record(change.var, "up", 1.0 - f, degradation)
        else:
            branching.record(change.var, "down", f, degradation)

    def _make_probe(
        self,
        tree: BBTree,
        sf_root: StandardFormLP,
        node_id: int,
        warm: Optional[WarmStartState],
    ) -> Callable[[int, Optional[float], Optional[float]], float]:
        """Child-LP prober for strong branching."""

        def probe(var: int, new_lb: Optional[float], new_ub: Optional[float]) -> float:
            child_lp = tree.node_problem(node_id).with_bounds(var, lb=new_lb, ub=new_ub)
            sf = sf_root.rebounded(child_lp)
            res = self.engine.solve_relaxation(sf, warm, probe=True).result
            if res.status is LPStatus.OPTIMAL:
                return res.objective
            return -np.inf

        return probe

    def _run_cut_rounds(self, sf: StandardFormLP, res: LPResult, x: np.ndarray):
        """Generate and apply cut rounds; returns (sf_final, res_final)."""
        with obs.span("mip.cuts", category="mip") as sp:
            sf_out, res_out = self._cut_rounds_inner(sf, res, x)
            sp.set(applied=res_out is not None)
            return sf_out, res_out

    def _cut_rounds_inner(self, sf: StandardFormLP, res: LPResult, x: np.ndarray):
        options = self.options
        sf_work, res_work, x_work = sf, res, x
        applied_any = False
        for _ in range(options.cut_rounds):
            if res_work.basis is None or res_work.x_standard is None:
                break
            pool = CutPool()
            for cut in gomory_mixed_integer_cuts(
                self.problem, sf_work, res_work.basis, res_work.at_upper,
                res_work.x_standard,
            ):
                pool.add(cut)
            for cut in cover_cuts(self.problem, sf_work, x_work):
                pool.add(cut)
            for cut in mir_cuts(self.problem, sf_work, x_work):
                pool.add(cut)
            selected = pool.select(CUTS_PER_ROUND)
            if not selected:
                break
            rows = np.vstack([c.row for c in selected])
            rhs = np.array([c.rhs for c in selected])
            sf_next = sf_work.with_appended_rows(rows, rhs)
            # The bordered basis: the cut slacks enter it, at no bound.
            bordered = WarmStartState(
                basis=np.concatenate(
                    [res_work.basis, np.arange(sf_work.n, sf_next.n, dtype=np.int64)]
                ),
                shape=(sf_next.m, sf_next.n),
                at_upper=np.concatenate(
                    [res_work.at_upper, np.zeros(len(selected), dtype=bool)]
                ),
            )
            # Ship the rows, then re-solve by the node LPs' own audited path.
            self.engine.ship_cuts(rows.size * 8 + rhs.size * 8)
            solved = self.engine.solve_relaxation(sf_next, bordered)
            if solved.audit_failed:
                self.stats.warm_audit_failures += 1
            res_next = solved.result
            self.stats.cut_rounds += 1
            if res_next.status is not LPStatus.OPTIMAL:
                # A valid cut cannot make the MIP infeasible; numerical
                # failure → discard this round and stop cutting.
                break
            self.stats.cuts_added += len(selected)
            sf_work, res_work = sf_next, res_next
            x_work = sf_work.recover_x(res_work.x_standard)
            applied_any = True
            if self.problem.fractional_integers(x_work).size == 0:
                break
        if not applied_any:
            return sf, None
        return sf_work, res_work
