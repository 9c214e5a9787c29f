"""repro.mip.portfolio — batched, seeded primal-heuristic portfolio.

The paper's hybrid strategy (§3) leaves heuristics on the CPU side, but
feasibility-jump / fix-and-propagate searches are wide, lockstep,
data-parallel workloads — exactly what the simulated device model was
built to price.  This module runs three complementary primal heuristics
under one roof and one seed:

- **feasibility jump** — many independent restarts advanced in masked
  lockstep sweeps, one ``(k, n_int)`` state block per chunk.  Each sweep
  scores every ±1 move of every integer variable for every member in two
  fused GEMM-shaped passes (charged as :func:`repro.device.kernels.gemm_kernel`
  like :mod:`repro.lp.pdhg_batch` charges its batched matvecs), applies
  the best strictly-improving move per member with one masked AXPY, and
  bumps each stuck member's *own* violated-row weights (per-member weight
  vectors — the classic feasibility-jump restart rule);
- **fix-and-propagate** — rounds the root-LP point at a *batch* of
  fixing thresholds, propagates variable bounds through the rows after
  each fixing, re-solves the residual LP, and dives the leftovers;
- **LNS** — re-solves small sub-MIPs around the incumbent with most
  integers pinned, through the ordinary branch-and-bound driver so the
  existing warm-start machinery (:mod:`repro.lp.warm`) carries bases
  between the sub-tree's nodes.

One root relaxation: every LP the portfolio runs is the root relaxation
under other bounds, so each starts warm from the LP it descends from
through the one LP door (:func:`repro.lp.warm.solve_warm_or_cold`) — a
residual, a polish and an LNS sub-MIP's root from the root's state, a
dive step from the step before it — and is cold-solved only when that
state is refused.  Branch and bound hands its own node-0 answer in as
the root (``run_portfolio(root=...)``), so a ``heuristic_first`` search
solves its root relaxation once; a standalone call solves its own.
Every LP is priced as one small-LP stream on its standard form's
``(m, n)``, the span of the pricing product.

Every incumbent is audited by the exact-rational certificate
(:func:`repro.check.certify_mip_solution`) before it is trusted; the
root relaxation's objective is kept as the dual bound so callers can
report a *certified* gap for heuristic-only answers.

Determinism: member ``r``'s trajectory depends only on ``(SEED, r)`` —
per-member RNG streams, per-row lockstep math — so every run yields the
same incumbent for any ``n_jobs`` chunk width, and ties between
equal-objective incumbents break on (phase, member) order, not on
scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.device import kernels as K
from repro.device.gpu import Device
from repro.errors import ReproError
from repro.lp.problem import LinearProgram, StandardFormLP
from repro.lp.result import LPResult, LPStatus
from repro.lp.warm import WarmStartState, solve_warm_or_cold
from repro.guard import budget as guard_budget
from repro.mip.problem import MIPProblem
from repro.mip.propagation import Propagator

#: Tie-break order between equal-objective incumbents (earlier wins).
_PHASE_RANK = {"rounding": 0, "feasibility_jump": 1, "fix_propagate": 2, "lns": 3}

#: Master seed; member ``r`` draws from ``default_rng((SEED, r))``.
SEED = 0
#: Rounding thresholds the fix-and-propagate phase batches over.
THRESHOLDS = (0.05, 0.2, 0.35, 0.5)
#: Fraction of the integer variables left free per LNS sub-MIP.
LNS_NEIGHBORHOOD = 0.3


@dataclass
class PortfolioOptions:
    """Budgets for one :func:`run_portfolio` call.

    Every incumbent is audited with the exact-rational certificate before
    it is trusted (rejected candidates are counted, never returned).
    """

    #: Total feasibility-jump restarts (fixed — independent of n_jobs).
    restarts: int = 32
    #: Lockstep chunk width: how many restarts advance per device sweep.
    n_jobs: int = 16
    #: Masked lockstep sweeps per feasibility-jump chunk.
    fj_sweeps: int = 120
    #: Large-neighborhood-search rounds (0 skips the phase).
    lns_rounds: int = 2
    #: Node budget per LNS sub-MIP re-solve.
    lns_node_limit: int = 200

    def __post_init__(self):
        if self.restarts < 1:
            raise ReproError(f"restarts must be at least 1, got {self.restarts!r}")
        if self.n_jobs < 1:
            raise ReproError(f"n_jobs must be at least 1, got {self.n_jobs!r}")
        if self.fj_sweeps < 1:
            raise ReproError(f"fj_sweeps must be at least 1, got {self.fj_sweeps!r}")
        if self.lns_rounds < 0:
            raise ReproError(
                f"lns_rounds must be non-negative, got {self.lns_rounds!r}"
            )
        if self.lns_node_limit < 1:
            raise ReproError(
                f"lns_node_limit must be positive, got {self.lns_node_limit!r}"
            )


@dataclass
class PortfolioIncumbent:
    """One certified feasible point found by the portfolio."""

    x: np.ndarray
    objective: float
    #: Which phase produced it: "feasibility_jump", "fix_propagate", "lns".
    heuristic: str
    #: Restart index / threshold index / LNS round — phase-local id.
    member: int
    #: True when the exact-rational certificate audited this point.
    certified: bool = False


@dataclass
class PortfolioResult:
    """Outcome of one :func:`run_portfolio` call."""

    #: Every accepted incumbent, in discovery order.
    incumbents: List[PortfolioIncumbent] = field(default_factory=list)
    #: Best incumbent (deterministic tie-break), None when none found.
    best: Optional[PortfolioIncumbent] = None
    #: Root-relaxation objective — the dual bound a heuristic answer's
    #: certified gap is measured against (+inf when the LP was unusable,
    #: -inf when the relaxation itself is infeasible).
    dual_bound: float = float("inf")
    #: Root relaxation status value ("optimal", "infeasible", ...).
    relaxation_status: str = ""
    #: Phase counters for ``MIPStats`` / report metrics.
    stats: Dict[str, int] = field(default_factory=dict)
    #: LP pivots spent across root/polish/dive/LNS solves.
    lp_iterations: int = 0
    #: Simulated device seconds charged by the portfolio (0 host-only).
    elapsed_seconds: float = 0.0
    #: Device clock at the moment the first incumbent landed (NaN if none).
    first_incumbent_seconds: float = float("nan")

    @property
    def objective(self) -> float:
        """Best incumbent objective (NaN when none found)."""
        return self.best.objective if self.best is not None else float("nan")

    @property
    def gap(self) -> float:
        """Relative certified gap of the best incumbent vs the dual bound."""
        if self.best is None or not np.isfinite(self.dual_bound):
            return float("inf")
        obj = self.best.objective
        return abs(self.dual_bound - obj) / max(1e-10, abs(obj))

    def summary(self) -> Dict[str, object]:
        """JSON-friendly counters for report metrics."""
        out: Dict[str, object] = dict(self.stats)
        out["incumbents"] = len(self.incumbents)
        out["lp_iterations"] = self.lp_iterations
        out["elapsed_seconds"] = float(self.elapsed_seconds)
        out["first_incumbent_seconds"] = (
            None
            if not np.isfinite(self.first_incumbent_seconds)
            else float(self.first_incumbent_seconds)
        )
        out["objective"] = (
            None if self.best is None else float(self.best.objective)
        )
        out["dual_bound"] = (
            None if not np.isfinite(self.dual_bound) else float(self.dual_bound)
        )
        out["gap"] = None if not np.isfinite(self.gap) else float(self.gap)
        if self.best is not None:
            out["best_heuristic"] = self.best.heuristic
        return out


# ---------------------------------------------------------------------------
# shared building blocks
# ---------------------------------------------------------------------------


def round_to_feasible(problem: MIPProblem, x: np.ndarray) -> Optional[np.ndarray]:
    """Round the integer components of ``x``; keep the point if feasible."""
    candidate = np.asarray(x, dtype=np.float64).copy()
    idx = problem.integer
    candidate[idx] = np.round(candidate[idx])
    candidate[idx] = candidate[idx].clip(problem.lb[idx], problem.ub[idx])
    if problem.is_feasible(candidate):
        return candidate
    return None


def dive_fix(
    problem: MIPProblem,
    node_lp: LinearProgram,
    x: np.ndarray,
    max_depth: int = 20,
    warm: Optional[WarmStartState] = None,
    device: Optional[Device] = None,
) -> Tuple[Optional[np.ndarray], int]:
    """Fix-and-resolve dive: pin the least-fractional integer, re-solve.

    Stops at integrality (success), LP infeasibility, or the depth
    limit.  Returns a feasible point or None — never claims optimality —
    and the pivots its LPs took.  Each step re-solves warm from the step
    before it (``warm``, the state of the LP that gave ``x``, seeds the
    first) and is priced as one small-LP stream on ``device``.
    """
    current_lp = node_lp
    current_x = np.asarray(x, dtype=np.float64)
    iterations = 0
    base = node_lp.to_standard_form()
    for _ in range(max_depth):
        fractional = problem.fractional_integers(current_x)
        if fractional.size == 0:
            if problem.is_feasible(current_x):
                return current_x, iterations
            return None, iterations
        frac_parts = current_x[fractional] - np.floor(current_x[fractional])
        dist = np.minimum(frac_parts, 1.0 - frac_parts)
        var = int(fractional[np.argmin(dist)])
        value = float(np.round(current_x[var]))
        value = float(np.clip(value, current_lp.lb[var], current_lp.ub[var]))
        current_lp = current_lp.with_bounds(var, lb=value, ub=value)
        res, warm, pivots = _solve_lp(base.rebounded(current_lp), warm, device)
        iterations += pivots
        if res.status is not LPStatus.OPTIMAL:
            return None, iterations
        current_x = res.x
    return None, iterations


# ---------------------------------------------------------------------------
# internals
# ---------------------------------------------------------------------------


def _charge_lp_stream(
    device: Optional[Device], shape: Tuple[int, int], iterations: int
) -> None:
    """Price one portfolio LP as the serial small-LP stream repro.api
    charges, at its standard form's ``(m, n)``: the rows it factorizes
    and the columns its pricing product spans."""
    m, n = shape
    if device is not None and m > 0:
        K.launch_lp_stream(device, m, n, iterations)


def _solve_lp(
    sf: StandardFormLP, warm: Optional[WarmStartState], device: Optional[Device]
) -> Tuple[LPResult, Optional[WarmStartState], int]:
    """One portfolio LP: ``sf``, re-solved from ``warm`` through the one
    LP door, cold when the state is refused.

    Returns the answer (``x`` recovered when optimal), the state it
    leaves for an LP that descends from it, and the pivots that ran — a
    refused warm attempt's included, as they are in its one stream.
    """
    outcome = solve_warm_or_cold(sf, warm)
    res = outcome.result
    if res.ok and res.x_standard is not None:
        res.x = sf.recover_x(res.x_standard)
    _charge_lp_stream(device, sf.a.shape, outcome.pivots)
    return res, WarmStartState.from_result(sf, res), outcome.pivots


class _Collector:
    """Accepts candidate points, certifies them, tracks the stats."""

    def __init__(self, problem: MIPProblem, device: Optional[Device]):
        self.problem = problem
        self.device = device
        self.incumbents: List[PortfolioIncumbent] = []
        self.rejected = 0
        self.first_seconds = float("nan")
        #: Integer form of the problem's matrices, shared by every audit
        #: of this fleet (filled and verified by value by the certifier).
        self.exact_form: dict = {}

    def offer(self, x: np.ndarray, heuristic: str, member: int) -> bool:
        """Audit and record one candidate; True when it was accepted."""
        x = np.asarray(x, dtype=np.float64)
        if not self.problem.is_feasible(x):
            return False
        obj = float(self.problem.objective(x))
        from repro.check import certify_mip_solution

        report = certify_mip_solution(
            self.problem, x, objective=obj, form=self.exact_form
        )
        if not report.ok:
            self.rejected += 1
            return False
        self.incumbents.append(
            PortfolioIncumbent(
                x=x.copy(), objective=obj, heuristic=heuristic,
                member=member, certified=True,
            )
        )
        if self.device is not None and np.isnan(self.first_seconds):
            self.first_seconds = self.device.clock.now
        obs.event(
            "portfolio.incumbent", category="mip",
            objective=obj, heuristic=heuristic, member=member,
        )
        return True

    def best(self) -> Optional[PortfolioIncumbent]:
        """Deterministic best: objective, then phase order, then member."""
        if not self.incumbents:
            return None
        return max(
            self.incumbents,
            key=lambda inc: (
                inc.objective,
                -_PHASE_RANK.get(inc.heuristic, 9),
                -inc.member,
            ),
        )


@dataclass
class _Prep:
    """Shared per-problem data every phase reads."""

    idx: np.ndarray          # integer variable indices
    cont: np.ndarray         # continuous variable indices
    propagate: Propagator    # its rows / rhs: all rows as <= inequalities
    relax: LinearProgram     # the root relaxation
    sf: StandardFormLP       # its standard form: every portfolio LP is it rebounded
    warm: Optional[WarmStartState]  # the state the root's answer leaves
    x_lp: Optional[np.ndarray]
    dual_bound: float
    relaxation_status: str
    lp_iterations: int


def _prepare(
    problem: MIPProblem,
    device: Optional[Device],
    root: Optional[Tuple[StandardFormLP, LPResult]],
) -> _Prep:
    """Build the unified ≤-row system (the propagator's); take the root
    relaxation's answer from ``root``, or solve (and price) it once here."""
    relax = problem.relaxation()
    if root is None:
        sf = relax.to_standard_form()
        res, warm, lp_iterations = _solve_lp(sf, None, device)
    else:
        # The caller solved it and counts its pivots.
        sf, res = root
        warm, lp_iterations = WarmStartState.from_result(sf, res), 0
    x_lp = None
    dual_bound = float("inf")
    if res.status is LPStatus.OPTIMAL:
        x = res.x if res.x is not None else sf.recover_x(res.x_standard)
        x_lp = np.clip(x, problem.lb, problem.ub)
        dual_bound = float(res.objective)
    elif res.status is LPStatus.INFEASIBLE:
        dual_bound = float("-inf")
    return _Prep(
        idx=np.nonzero(problem.integer)[0],
        cont=np.nonzero(~problem.integer)[0],
        propagate=Propagator(problem),
        relax=relax,
        sf=sf,
        warm=warm,
        x_lp=x_lp,
        dual_bound=dual_bound,
        relaxation_status=res.status.value,
        lp_iterations=lp_iterations,
    )


def _assemble(
    problem: MIPProblem, prep: _Prep, x_int: np.ndarray,
    collector: _Collector, device: Optional[Device],
) -> Tuple[np.ndarray, int]:
    """Full-space candidate from an integer assignment.

    With continuous variables present, polish them by re-solving the LP
    with the integers pinned (warm from the root); without, the integer
    assignment is the whole point.
    """
    x = np.zeros(problem.n)
    x[prep.idx] = x_int
    if prep.cont.size == 0:
        return x, 0
    if prep.x_lp is not None:
        x[prep.cont] = prep.x_lp[prep.cont]
    lb = problem.lb.copy()
    ub = problem.ub.copy()
    lb[prep.idx] = x_int
    ub[prep.idx] = x_int
    polish = prep.relax.with_bound_vectors(lb, ub)
    res, _, pivots = _solve_lp(prep.sf.rebounded(polish), prep.warm, device)
    if res.status is LPStatus.OPTIMAL:
        return np.clip(res.x, problem.lb, problem.ub), pivots
    return x, pivots


def _feasibility_jump(
    problem: MIPProblem,
    options: PortfolioOptions,
    prep: _Prep,
    collector: _Collector,
    device: Optional[Device],
) -> Tuple[int, int, bool]:
    """Wide restarts in masked lockstep chunks; returns (sweeps, lp_iters, cut).

    The state is a ``(k, n_int)`` block per chunk.  One sweep scores the
    down- and up-moves of every integer variable for every active member
    (two GEMM-shaped passes over the ``(k, rows, n_int)`` broadcast),
    applies each member's best strictly-improving move with one masked
    AXPY, and bumps stuck members' violated-row weights before a seeded
    kick.  Rows/columns are member-independent, so a member's trajectory
    is identical for any chunk width.
    """
    idx = prep.idx
    ni = idx.size
    if ni == 0:
        return 0, 0, False
    lb_i = problem.lb[idx]
    ub_i = problem.ub[idx]
    a_rows, b_rows = prep.propagate.rows, prep.propagate.rhs
    a_int = a_rows[:, idx] if a_rows.size else np.zeros((0, ni))
    p = a_int.shape[0]
    # Continuous contribution is frozen at the root-LP point (polished
    # per candidate later); fold it into the rhs.
    if prep.cont.size and prep.x_lp is not None:
        b_eff = b_rows - a_rows[:, prep.cont] @ prep.x_lp[prep.cont]
    else:
        b_eff = b_rows.copy()
    row_tol = 1e-7 * (1.0 + np.abs(b_eff))
    c_int = problem.c[idx]
    obj_eps = 1e-4 / max(1.0, float(np.abs(c_int).max()) if ni else 1.0)
    if prep.x_lp is not None:
        base_round = np.clip(np.round(prep.x_lp[idx]), lb_i, ub_i)
    else:
        base_round = np.clip(np.zeros(ni), lb_i, ub_i)

    total_sweeps = 0
    lp_iters = 0
    cut = False
    for chunk_start in range(0, options.restarts, options.n_jobs):
        # Anytime contract: an expired deadline budget stops the phase
        # at the next chunk boundary with whatever incumbents exist.
        if guard_budget.deadline_hit():
            cut = True
            break
        members = list(range(chunk_start, min(chunk_start + options.n_jobs,
                                              options.restarts)))
        k = len(members)
        rngs = [np.random.default_rng((SEED, r)) for r in members]
        x = np.tile(base_round, (k, 1))
        for t, r in enumerate(members):
            if r == 0:
                continue
            # Later restarts randomize a growing share of the rounding.
            share = min(0.9, 0.1 + r / max(1, options.restarts))
            mask = rngs[t].random(ni) < share
            draw = rngs[t].integers(
                lb_i.astype(np.int64), ub_i.astype(np.int64) + 1
            ).astype(np.float64)
            x[t] = np.where(mask, draw, x[t])
        # Residuals per member via gemv (k-independent math per row).
        res = np.stack([a_int @ x[t] for t in range(k)]) - b_eff[None, :] \
            if p else np.zeros((k, 0))
        if device is not None and p:
            device._charge(K.gemm_kernel(k, p, ni), None)
        w = np.ones((k, p))
        active = np.ones(k, dtype=bool)

        for _sweep in range(options.fj_sweeps):
            if not active.any():
                break
            if guard_budget.deadline_hit():
                cut = True
                break
            total_sweeps += 1
            viol = (w * np.maximum(res, 0.0)).sum(axis=1) if p else np.zeros(k)
            # Members whose integer rows close out: assemble + audit.
            for t in np.nonzero(active)[0]:
                if p == 0 or (res[t] <= row_tol).all():
                    cand, it = _assemble(problem, prep, x[t], collector, device)
                    lp_iters += it
                    collector.offer(cand, "feasibility_jump", members[t])
                    active[t] = False
            if not active.any():
                break

            down_d = np.where(x > lb_i[None, :] + 0.5, -1.0, 0.0)
            up_d = np.where(x < ub_i[None, :] - 0.5, 1.0, 0.0)
            if p:
                # Two fused score passes — the same (k × rows · n_int)
                # arithmetic a batched GEMM would do, charged as such.
                new_down = res[:, :, None] + a_int[None, :, :] * down_d[:, None, :]
                new_up = res[:, :, None] + a_int[None, :, :] * up_d[:, None, :]
                viol_down = (w[:, :, None] * np.maximum(new_down, 0.0)).sum(axis=1)
                viol_up = (w[:, :, None] * np.maximum(new_up, 0.0)).sum(axis=1)
                if device is not None:
                    device._charge(K.gemm_kernel(k, p, ni), None)
                    device._charge(K.gemm_kernel(k, p, ni), None)
            else:
                viol_down = np.zeros((k, ni))
                viol_up = np.zeros((k, ni))
            score_down = viol_down - viol[:, None] - obj_eps * c_int[None, :] * down_d
            score_up = viol_up - viol[:, None] - obj_eps * c_int[None, :] * up_d
            score_down[down_d == 0.0] = np.inf
            score_up[up_d == 0.0] = np.inf
            scores = np.concatenate([score_down, score_up], axis=1)  # (k, 2ni)
            pick = np.argmin(scores, axis=1)
            best_score = scores[np.arange(k), pick]
            improving = active & (best_score < -1e-9)

            # Masked apply: each improving member moves one coordinate.
            for t in np.nonzero(improving)[0]:
                j = int(pick[t] % ni)
                d = -1.0 if pick[t] < ni else 1.0
                x[t, j] += d
                if p:
                    res[t] += d * a_int[:, j]
            if device is not None and improving.any():
                device._charge(K.axpy_kernel(k * ni), None)

            # Stuck members: per-member weight bump + seeded kick.
            stuck = active & ~improving
            for t in np.nonzero(stuck)[0]:
                if p:
                    w[t, res[t] > row_tol] += 1.0
                kick = rngs[t].choice(ni, size=max(1, ni // 8), replace=False)
                for j in kick:
                    step = float(rngs[t].choice([-1.0, 1.0]))
                    new_val = float(np.clip(x[t, j] + step, lb_i[j], ub_i[j]))
                    d = new_val - x[t, j]
                    if d != 0.0:
                        x[t, j] = new_val
                        if p:
                            res[t] += d * a_int[:, j]
    return total_sweeps, lp_iters, cut


def _fix_and_propagate(
    problem: MIPProblem,
    options: PortfolioOptions,
    prep: _Prep,
    collector: _Collector,
    device: Optional[Device],
) -> Tuple[int, int, bool]:
    """LP-guided fixing batched over thresholds; returns (rounds, lp_iters, cut)."""
    if prep.x_lp is None or prep.idx.size == 0:
        return 0, 0, False
    idx = prep.idx
    frac = prep.x_lp[idx] - np.floor(prep.x_lp[idx])
    thresholds = np.asarray(THRESHOLDS, dtype=np.float64)
    # Batched fixing decision: one boolean block for all thresholds.
    fix_down = frac[None, :] <= thresholds[:, None]
    fix_up = frac[None, :] >= 1.0 - thresholds[:, None]
    # Every threshold's fixed box, propagated through the rows as one stack.
    vals = np.where(fix_up, np.ceil(prep.x_lp[idx]), np.floor(prep.x_lp[idx]))
    fixed = fix_down | fix_up
    lbs = np.tile(problem.lb, (thresholds.size, 1))
    ubs = np.tile(problem.ub, (thresholds.size, 1))
    lbs[:, idx] = np.where(fixed, vals, lbs[:, idx])
    ubs[:, idx] = np.where(fixed, vals, ubs[:, idx])
    lbs, ubs, feasible = prep.propagate(lbs, ubs)
    rounds = 0
    lp_iters = 0
    cut = False
    for ti in range(thresholds.size):
        if guard_budget.deadline_hit():
            cut = True
            break
        if not feasible[ti]:
            continue
        lb2, ub2 = lbs[ti], ubs[ti]
        rounds += 1
        residual = prep.relax.with_bound_vectors(lb2, ub2)
        res, warm, pivots = _solve_lp(prep.sf.rebounded(residual), prep.warm, device)
        lp_iters += pivots
        if res.status is not LPStatus.OPTIMAL:
            continue
        x = np.clip(res.x, lb2, ub2)
        if problem.fractional_integers(x).size:
            x, dive_iters = dive_fix(
                problem, residual, x, max_depth=min(25, idx.size),
                warm=warm, device=device,
            )
            lp_iters += dive_iters
            if x is None:
                continue
        collector.offer(x, "fix_propagate", ti)
    return rounds, lp_iters, cut


def _lns(
    problem: MIPProblem,
    options: PortfolioOptions,
    prep: _Prep,
    collector: _Collector,
    device: Optional[Device],
) -> Tuple[int, int, bool]:
    """Warm-started sub-MIP re-solves around the incumbent: each
    sub-search's root starts from the root relaxation's state."""
    # Imported here: mip.solver imports this module for its rounding
    # heuristic, so the top level must stay solver-free.
    from repro.mip.solver import BranchAndBoundSolver, SolverOptions

    idx = prep.idx
    if idx.size == 0:
        return 0, 0, False
    rounds = 0
    lp_iters = 0
    cut = False
    for round_i in range(options.lns_rounds):
        if guard_budget.deadline_hit():
            cut = True
            break
        best = collector.best()
        if best is None:
            break
        rng = np.random.default_rng((SEED, 7919, round_i))
        free_count = max(1, int(np.ceil(idx.size * LNS_NEIGHBORHOOD)))
        free = rng.choice(idx, size=min(free_count, idx.size), replace=False)
        pinned = np.setdiff1d(idx, free)
        if pinned.size == 0 and idx.size > 1:
            continue
        lb = problem.lb.copy()
        ub = problem.ub.copy()
        lb[pinned] = np.round(best.x[pinned])
        ub[pinned] = np.round(best.x[pinned])
        sub = problem.restricted(lb, ub)
        solver = BranchAndBoundSolver(
            sub,
            SolverOptions(
                node_limit=options.lns_node_limit,
                warm_start=True,
            ),
            root_warm=prep.warm,
        )
        result = solver.solve()
        rounds += 1
        lp_iters += result.stats.lp_iterations
        _charge_lp_stream(device, sub.bounded_shape(), result.stats.lp_iterations)
        if result.x is not None:
            collector.offer(
                np.clip(result.x, problem.lb, problem.ub), "lns", round_i
            )
    return rounds, lp_iters, cut


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run_portfolio(
    problem: MIPProblem,
    options: Optional[PortfolioOptions] = None,
    device: Optional[Device] = None,
    root: Optional[Tuple[StandardFormLP, LPResult]] = None,
) -> PortfolioResult:
    """Run the full heuristic portfolio on one MIP.

    Phases run in a fixed order (feasibility jump → fix-and-propagate →
    LNS) sharing one root-relaxation solve; the result's ``dual_bound``
    is that relaxation's objective, so ``result.gap`` is a *certified*
    optimality gap (every incumbent passed the exact-rational
    feasibility certificate, and the LP bound is a true dual bound for
    the maximization MIP).

    ``root`` is that relaxation already solved by the caller — its
    standard form and answer (branch and bound's node 0) — whose pivots
    the caller counts; without it the portfolio solves and prices its
    own, and reports its pivots.
    """
    options = options or PortfolioOptions()
    t0 = device.clock.now if device is not None else 0.0
    with obs.span(
        "mip.portfolio", category="mip",
        n=problem.n, integers=problem.num_integer, restarts=options.restarts,
    ) as sp:
        prep = _prepare(problem, device, root)
        collector = _Collector(problem, device)
        stats: Dict[str, int] = {
            "restarts": 0, "fj_sweeps": 0, "fnp_rounds": 0,
            "lns_rounds": 0, "rejected": 0, "deadline_stops": 0,
        }
        lp_iters = prep.lp_iterations

        def expired() -> bool:
            # SolveOptions.deadline installs a guard budget around the
            # whole solve; the portfolio polls it at phase boundaries
            # (and inside each phase loop) so a mid-portfolio expiry
            # returns the certified anytime result instead of running on.
            if guard_budget.deadline_hit():
                stats["deadline_stops"] += 1
                return True
            return False

        if prep.idx.size == 0:
            # Pure-LP "MIP": the relaxation point is the candidate.
            if prep.x_lp is not None:
                collector.offer(prep.x_lp, "fix_propagate", 0)
        elif prep.relaxation_status != "infeasible":
            if not expired():
                sweeps, it, cut = _feasibility_jump(
                    problem, options, prep, collector, device
                )
                stats["restarts"] = options.restarts
                stats["fj_sweeps"] = sweeps
                stats["deadline_stops"] += int(cut)
                lp_iters += it
            if not expired():
                rounds, it, cut = _fix_and_propagate(
                    problem, options, prep, collector, device
                )
                stats["fnp_rounds"] = rounds
                stats["deadline_stops"] += int(cut)
                lp_iters += it
            if not expired():
                rounds, it, cut = _lns(problem, options, prep, collector, device)
                stats["lns_rounds"] = rounds
                stats["deadline_stops"] += int(cut)
                lp_iters += it

        stats["rejected"] = collector.rejected
        best = collector.best()
        sp.set(
            incumbents=len(collector.incumbents),
            best=best.objective if best is not None else None,
        )
        return PortfolioResult(
            incumbents=collector.incumbents,
            best=best,
            dual_bound=prep.dual_bound,
            relaxation_status=prep.relaxation_status,
            stats=stats,
            lp_iterations=lp_iters,
            elapsed_seconds=(device.clock.now - t0) if device is not None else 0.0,
            first_incumbent_seconds=collector.first_seconds,
        )
