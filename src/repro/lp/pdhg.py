"""Restarted primal-dual hybrid gradient (PDHG) for LP — the PDLP recipe.

The related work is unambiguous about which LP algorithm actually scales
on massively parallel hardware: not the simplex method with its serial
pivot chain, but restarted PDHG, whose every iteration is two
matrix-vector products plus elementwise work ("An Overview of GPU-based
First-Order Methods for Linear Programming and Extensions"; "Batched
First-Order Methods for Parallel LP Solving in MIP").  This module is
that engine, built from scratch over the repo's dense data model, and it
holds the only PDHG loop in the repo: :func:`_lockstep_pdhg` advances k
same-shape saddle forms in lockstep, and a single LP is the k = 1 case
(paper §5.5; DESIGN.md, "One PDHG loop").  Every caller poses its LP by
:func:`saddle_from_lp`, a branch-and-bound node LP included: bounds are
projections, not rows, so all node LPs of a tree share one saddle shape
and a round of them is one shared-K batch (DESIGN.md, "One first-order
node path").

- the LP is posed as the saddle point  min_x max_y  ĉᵀx + yᵀ(q − Kx)
  over the bound box and the dual cone (equality duals free, inequality
  duals ≥ 0), where ĉ = −c converts the repo's maximization form;
- k members are stacked into ``(k, n)`` / ``(k, m)`` iterate blocks.
  Sibling node LPs from branch-and-bound share K and differ only in
  bounds (and rhs), so a sweep is two dense GEMMs — ``Y @ K`` and
  ``X̄ @ Kᵀ``; heterogeneous batches fall back to batched matvecs
  (einsum), the batched-GEMV shape a MAGMA-style library would run;
- Ruiz equilibration conditions every member's K (one scaling when K
  is shared, one per member otherwise — batch-mates never decide a
  member's conditioning); a power iteration on ‖K‖₂ (batched across a
  heterogeneous stack) gives the *first* step ``STEP_SIZE_SCALE/‖K‖₂``;
- after that each member's step is ``STEP_SIZE_SCALE`` of its own
  *ceiling*: 1/‖K‖₂ of the face the member moves on (variables strictly
  inside their box × equality rows and rows with positive duals),
  re-measured at every KKT check by a few batched power-iteration
  steps, and lowered in between to the largest step each proposal
  justifies, ``η_max = (ω‖Δx‖² + ‖Δy‖²/ω) / (2|Δxᵀ Kᵀ Δy|)`` — PDLP's
  bound (:func:`_step_limit`).  A sweep proposes ``(x', y')`` and the
  proposal is taken iff ``η ≤ η_max``; a refused step is how a face
  that grew, or a norm that read low, is caught.  (PDLP's memoryless
  rule lets η ride above the face's stable step until round-off blows
  up the dominant direction, so its sweep counts hang on the last
  digits of the data; see ``docs/first_order_lp.md``.)  ``Kᵀy`` is
  carried across sweeps, so an attempted step is still two matrix
  products (``K(2x' − x)`` and ``Kᵀy'``); τ = η/ω and σ = ηω split the
  step by the primal weight ω;
- per member, the iterate *and its running average* are scored by
  relative KKT residuals every ``CHECK_EVERY`` sweeps; adaptive restarts
  reset to the better candidate (sufficient decay 0.2 / necessary decay
  0.8 / artificial restart at 36% of total work — the PDLP schedule)
  and rebalance ω from the primal/dual movement since the last restart
  (log-space smoothing θ = 0.5).  These are the recipe's fixed values,
  module constants below, not options;
- termination is a *relative KKT certificate*: primal residual, dual
  residual, and duality gap each below ``tolerance`` at their natural
  scales — exactly the contract :func:`repro.check.certify_first_order_lp`
  re-audits in exact rational arithmetic;
- infeasibility/unboundedness are detected from the normalized iterate
  displacement, which for diverging PDHG approximates a Farkas ray
  (dual ray ⇒ primal infeasible, primal ray ⇒ unbounded); a ray must
  validate on two consecutive checks before a status is declared;
- members stop individually and are frozen (ceiling 0 ⇒ η = 0, a fixed
  point of the sweep that no step limit moves) while the rest of the
  batch keeps sweeping, mirroring :mod:`repro.lp.batch_simplex`.

The optional :class:`PDHGCostHook` receives one callback per matvec
sweep so a simulated device can charge the exact kernel stream a GPU
implementation would launch (mirroring :class:`repro.lp.simplex.CostHook`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import ShapeError
from repro.guard import budget as guard_budget
from repro.guard.watchdog import IterationWatchdog
from repro.lp.problem import LinearProgram
from repro.lp.result import LPStatus


class PDHGCostHook:
    """Receives one call per linear-algebra sweep of the PDHG loop.

    The default implementation is a no-op; device-backed hooks (see
    :class:`repro.lp.pdhg_batch.PdhgDeviceHook`) charge the
    corresponding kernels.  ``k`` is the number of LPs advancing in the
    sweep: the live width of the lockstep engine (1 for a single LP).
    """

    def on_layout(self, k: int, shared: bool) -> None:
        """Called once, first: the engine's layout for its k members.

        ``shared`` means they all carry one K, so a sweep is two plain
        GEMMs; otherwise each member multiplies its own matrix (batched
        GEMV).
        """

    def on_setup(self, k: int, m: int, n: int) -> None:
        """One setup matvec pair: a power-iteration step ``Kᵀ(K v)`` — on
        the whole matrix before the first sweep (k matrices at once for
        a heterogeneous batch), on the k live members' faces at a check —
        or the ``Kᵀy₀`` a warm start must bring (charged as a pair)."""

    def on_iteration(self, k: int, m: int, n: int) -> None:
        """One attempted PDHG step, three launches: the primal update
        (with the previous step's accept / where / span-sum pass, which
        reads its reduction), ``K x̄`` with the dual update and projection
        in its epilogue, and ``Kᵀy'`` with the step limit's inner products
        in its epilogue."""

    def on_check(self, k: int, m: int, n: int) -> None:
        """One KKT evaluation: K x, Kᵀy, and the reductions."""


NULL_PDHG_HOOK = PDHGCostHook()

# The PDLP recipe's constants (Lu & Yang's overview presents them as the
# method's fixed values, not inputs to tune).

#: Iterations between KKT evaluations / restart decisions.
CHECK_EVERY = 40
#: Step as a fraction of the member's ceiling: 1/‖K‖₂ at the start,
#: 1/‖K_face‖₂ (or a proposal's own limit, if lower) from then on.
STEP_SIZE_SCALE = 0.9
#: Restart when the candidate KKT score decays below this factor ...
RESTART_SUFFICIENT = 0.2
#: ... or below this factor once progress has stalled.
RESTART_NECESSARY = 0.8
#: Artificial restart once the current span exceeds this fraction of all
#: iterations so far (keeps averages from going stale).
ARTIFICIAL_RESTART = 0.36
#: Log-space smoothing of the primal-weight update (PDLP's θ).
PRIMAL_WEIGHT_SMOOTHING = 0.5
#: Ruiz equilibration sweeps applied to K before solving.
RUIZ_ITERATIONS = 10
#: Power-iteration steps for the whole matrix's ‖K‖₂ estimate.
POWER_ITERATIONS = 30
#: Relative tolerance for validating a candidate Farkas ray.
RAY_TOLERANCE = 1e-6
#: Residual-scale multiple :meth:`PDHGResult.upper_bound` pads by.
UPPER_BOUND_PAD = 10.0


@dataclass
class PDHGOptions:
    """What a caller sets on the restarted PDHG solver."""

    #: Relative KKT tolerance (primal residual, dual residual, gap).
    tolerance: float = 1e-8
    #: Iteration cap; None derives ``4000 + 200·(m+n)`` from the shape.
    max_iterations: Optional[int] = None

    def __post_init__(self):
        from repro.errors import ReproError

        if not self.tolerance > 0:
            raise ReproError(
                f"tolerance must be positive, got {self.tolerance!r}"
            )
        if self.max_iterations is not None and self.max_iterations <= 0:
            raise ReproError(
                f"max_iterations must be positive, got {self.max_iterations!r}"
            )


@dataclass
class PDHGStats:
    """Work counters of one PDHG solve."""

    iterations: int = 0
    restarts: int = 0
    kkt_checks: int = 0
    power_iterations: int = 0
    #: Attempted steps refused because η exceeded the proposal's limit.
    rejected_steps: int = 0


@dataclass
class PDHGResult:
    """Outcome of a PDHG solve, in the *original* LP's variable space.

    Dual quantities use the **minimization saddle form** the solver works
    in: rows ordered ``[a_eq; −a_ub]`` with equality duals free and
    inequality duals ≥ 0, and reduced costs ``r = −c − Kᵀy``.  The
    certificate auditor (:func:`repro.check.certify_first_order_lp`)
    consumes exactly this convention.
    """

    status: LPStatus
    #: Objective of the original (maximization) LP.
    objective: float = np.nan
    x: Optional[np.ndarray] = None
    #: Saddle-form duals, rows ``[eq; ineq]`` (ineq duals ≥ 0).
    y: Optional[np.ndarray] = None
    #: Saddle-form reduced costs ĉ − Kᵀy.
    reduced_costs: Optional[np.ndarray] = None
    #: Relative KKT residuals at the returned point.
    primal_residual: float = np.inf
    dual_residual: float = np.inf
    gap: float = np.inf
    #: Saddle-form (minimization) primal and dual objective values.
    primal_objective_min: float = np.nan
    dual_objective_min: float = np.nan
    stats: PDHGStats = field(default_factory=PDHGStats)

    @property
    def ok(self) -> bool:
        """True when an eps-KKT point was reached."""
        return self.status is LPStatus.OPTIMAL

    @property
    def iterations(self) -> int:
        return self.stats.iterations

    def upper_bound(self) -> float:
        """Tolerance-padded upper bound on the original LP's optimum.

        ``max(primal, dual)`` objective (maximization form) plus
        :data:`UPPER_BOUND_PAD` times the residual scale — the bound the
        branch-and-bound drivers prune with, so an eps-low PDHG value
        can never cut off the true optimum within the declared gap.
        """
        p = self.objective
        d = -self.dual_objective_min
        scale = 1.0 + abs(p) + abs(d)
        slack = UPPER_BOUND_PAD * max(self.gap, self.dual_residual, 0.0) * scale
        return max(p, d) + slack


@dataclass
class _Saddle:
    """The minimization saddle form PDHG iterates on."""

    c_hat: np.ndarray  # (n,) minimize ĉᵀx
    k: np.ndarray      # (m, n) rows [eq; ineq], ineq written as Gx ≥ h
    q: np.ndarray      # (m,)
    num_eq: int
    lb: np.ndarray
    ub: np.ndarray
    # What every KKT and ray check reads of the saddle alone, derived
    # once here rather than per check (the saddle is never mutated).
    lb_fin: np.ndarray = field(init=False, repr=False)
    ub_fin: np.ndarray = field(init=False, repr=False)
    lb_any: bool = field(init=False, repr=False)
    ub_any: bool = field(init=False, repr=False)
    #: ``1 + ‖q‖`` and ``1 + ‖ĉ‖``: the residuals' and rays' scales.
    q_scale: float = field(init=False, repr=False)
    c_scale: float = field(init=False, repr=False)
    #: ``max(1, max|K|)``: the rays' tolerance scale.
    k_scale: float = field(init=False, repr=False)

    def __post_init__(self):
        self.lb_fin = np.isfinite(self.lb)
        self.ub_fin = np.isfinite(self.ub)
        self.lb_any = bool(self.lb_fin.any())
        self.ub_any = bool(self.ub_fin.any())
        self.q_scale = 1.0 + np.linalg.norm(self.q)
        self.c_scale = 1.0 + np.linalg.norm(self.c_hat)
        self.k_scale = max(1.0, float(np.max(np.abs(self.k)))) if self.k.size else 1.0

    @property
    def m(self) -> int:
        return self.k.shape[0]

    @property
    def n(self) -> int:
        return self.k.shape[1]


def saddle_from_lp(lp: LinearProgram) -> _Saddle:
    """Pose a (maximization) :class:`LinearProgram` as the saddle form."""
    blocks = []
    rhs = []
    num_eq = lp.num_eq_rows
    if lp.a_eq is not None:
        blocks.append(lp.a_eq)
        rhs.append(lp.b_eq)
    if lp.a_ub is not None:
        # A_ub x ≤ b_ub  ⇔  (−A_ub) x ≥ (−b_ub): inequality duals ≥ 0.
        blocks.append(-lp.a_ub)
        rhs.append(-lp.b_ub)
    n = lp.n
    if blocks:
        k = np.vstack(blocks)
        q = np.concatenate(rhs)
    else:
        k = np.zeros((0, n))
        q = np.zeros(0)
    return _Saddle(
        c_hat=-lp.c.astype(np.float64),
        k=np.asarray(k, dtype=np.float64),
        q=np.asarray(q, dtype=np.float64),
        num_eq=num_eq,
        lb=lp.lb.copy(),
        ub=lp.ub.copy(),
    )


def ruiz_equilibrate(
    k: np.ndarray, iterations: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Ruiz scaling: returns (d_row, d_col) with K̃ = D_r K D_c balanced."""
    m, n = k.shape
    d_row = np.ones(m)
    d_col = np.ones(n)
    if k.size == 0 or iterations <= 0:
        return d_row, d_col
    work = k.copy()
    for _ in range(iterations):
        row_max = np.max(np.abs(work), axis=1)
        col_max = np.max(np.abs(work), axis=0)
        row_scale = 1.0 / np.sqrt(np.where(row_max > 0, row_max, 1.0))
        col_scale = 1.0 / np.sqrt(np.where(col_max > 0, col_max, 1.0))
        work *= row_scale[:, None]
        work *= col_scale[None, :]
        d_row *= row_scale
        d_col *= col_scale
        if (
            np.all(np.abs(1.0 - row_max[row_max > 0]) < 1e-3)
            and np.all(np.abs(1.0 - col_max[col_max > 0]) < 1e-3)
        ):
            break
    return d_row, d_col


def power_iteration_norm(
    k: np.ndarray,
    iterations: int,
    hook: PDHGCostHook = NULL_PDHG_HOOK,
) -> np.ndarray:
    """Deterministic power-iteration estimates of ‖K‖₂ (via KᵀK).

    ``k`` is a ``(b, m, n)`` stack (one matrix is a stack of one) that
    advances as *one* batched iteration — one ``on_setup(b, m, n)`` per
    step — and the result has shape ``(b,)``.  An estimate is 0.0 for an
    empty, all-zero, near-zero, or non-finite matrix — never NaN/Inf —
    so callers can substitute a safe step size instead of dividing by a
    garbage norm (an all-zero constraint block would otherwise turn
    1/‖K‖ into a NaN step and poison every iterate).
    """
    stack = k.reshape((-1,) + k.shape[-2:])
    b, m, n = stack.shape
    sigma = np.zeros(b)
    live = np.isfinite(stack).all(axis=(1, 2)) & bool(m and n)
    stack = np.where(live[:, None, None], stack, 0.0)
    # Deterministic non-degenerate start (a seeded RNG would make solves
    # depend on call order; a fixed ramp never does).
    v = 1.0 + np.arange(n) / max(1, n)
    v = np.tile(v / np.linalg.norm(v), (b, 1))
    for _ in range(iterations):
        if not live.any():
            break
        hook.on_setup(b, m, n)
        kv = np.matmul(stack, v[:, :, None])                      # (b, m, 1)
        w = np.matmul(stack.transpose(0, 2, 1), kv)[:, :, 0]      # (b, n)
        norm = np.linalg.norm(w, axis=1)
        live &= np.isfinite(norm) & (norm > 1e-150)
        norm = np.where(live, norm, 1.0)
        sigma = np.where(live, np.sqrt(norm), 0.0)
        v = np.where(live[:, None], w / norm[:, None], 0.0)
    return sigma


def _kkt(
    s: _Saddle, x: np.ndarray, y: np.ndarray
) -> Tuple[float, float, float, float, float, np.ndarray]:
    """Relative KKT residuals at (x, y) in the original (unscaled) data.

    Returns ``(primal_res, dual_res, gap, p, d, kt_y)`` where ``p``/``d``
    are the min-form primal/dual objectives and ``kt_y = Kᵀy`` is the
    product the evaluation already paid for (a restart re-uses it).
    A norm is ``sqrt(v·v)``, ``np.linalg.norm``'s own 1-D path.
    """
    kx = s.k @ x
    resid = kx - s.q
    if s.num_eq < s.m:
        # Inequality rows Gx ≥ h: only violations below q count.
        resid[s.num_eq:] = np.minimum(resid[s.num_eq:], 0.0)
    primal_res = float(np.sqrt(resid.dot(resid))) / s.q_scale

    kt_y = s.k.T @ y
    r = s.c_hat - kt_y
    # A positive reduced cost is absorbed by a finite lower bound, a
    # negative one by a finite upper bound; otherwise it is a violation.
    viol = np.maximum(-r, 0.0)
    viol[s.ub_fin] = 0.0
    unabsorbed = np.maximum(r, 0.0)
    unabsorbed[s.lb_fin] = 0.0
    viol += unabsorbed
    dual_res = float(np.sqrt(viol.dot(viol))) / s.c_scale

    p = float(s.c_hat @ x)
    d = float(s.q @ y)
    pos = np.maximum(r, 0.0)
    neg = np.minimum(r, 0.0)
    if s.lb_any:
        d += float(s.lb[s.lb_fin] @ pos[s.lb_fin])
    if s.ub_any:
        d += float(s.ub[s.ub_fin] @ neg[s.ub_fin])
    gap = abs(p - d) / (1.0 + abs(p) + abs(d))
    return primal_res, dual_res, gap, p, d, kt_y


def _score(primal_res: float, dual_res: float, gap: float) -> float:
    return float(np.sqrt(primal_res**2 + dual_res**2 + gap**2))


def _step_limit(
    omega: np.ndarray, dx: np.ndarray, dy: np.ndarray, dkty: np.ndarray
) -> np.ndarray:
    """The largest step each member's proposal justifies (PDLP's bound).

    A sweep proposed ``Δx`` ``(k, n)``, ``Δy`` ``(k, m)`` under primal
    weight ω, and ``dkty = KᵀΔy``.  The bound is
    ``η_max = (ω‖Δx‖² + ‖Δy‖²/ω) / (2|Δxᵀ KᵀΔy|)`` — never below 1/‖K‖₂,
    far above it when the proposal avoids K's dominant directions, and
    ``+inf`` without an interaction term (so a frozen row, η = 0 ⇒
    Δ = 0, has no limit).  A proposal stands iff its step is within it.

    ``‖Δx‖²`` and ``Δxᵀ KᵀΔy`` are one ``einsum`` over ``[Δx; KᵀΔy]``
    stacked, which sums each row exactly as the per-product ``einsum``
    does; ``vecdot``, ``sum`` and ``@`` round differently.
    """
    pair = np.empty((2,) + dx.shape)
    pair[0] = dx
    pair[1] = dkty
    squares, cross = np.einsum("jkn,kn->jk", pair, dx)
    movement = omega * squares
    movement += np.einsum("km,km->k", dy, dy) / omega
    interaction = 2.0 * np.abs(cross)
    bounded = interaction > 0
    np.divide(movement, interaction, out=movement, where=bounded)
    movement[~bounded] = np.inf
    return movement


def _check_dual_ray(s: _Saddle, dy: np.ndarray, tol: float) -> bool:
    """Farkas certificate of primal infeasibility from a dual direction.

    ``ŷ`` (eq rows free, ineq rows ≥ 0) proves ``{lb ≤ x ≤ ub : Kx ⋛ q}``
    empty when  sup_{lb≤x≤ub} ŷᵀKx < ŷᵀq.  The sup is finite only where
    each component of ``r = Kᵀŷ`` is absorbed by a finite bound on its
    side; the bounds then contribute ``Σ r⁺·ub + Σ r⁻·lb``.
    """
    ray = dy.copy()
    if s.num_eq < s.m:
        ray[s.num_eq:] = np.maximum(ray[s.num_eq:], 0.0)
    norm = np.maximum.reduce(np.abs(ray)) if ray.size else 0.0
    if norm <= 1e-12:
        return False
    ray /= norm
    r = s.k.T @ ray
    pos = r > tol * s.k_scale
    neg = r < -tol * s.k_scale
    if (pos & ~s.ub_fin).any() or (neg & ~s.lb_fin).any():
        return False
    # An empty side adds an empty product, 0.0.
    support = float(r[pos] @ s.ub[pos]) + float(r[neg] @ s.lb[neg])
    margin = float(s.q @ ray) - support
    return margin > tol * s.q_scale


def _check_primal_ray(s: _Saddle, dx: np.ndarray, tol: float) -> bool:
    """Certificate of unboundedness (min form: ĉᵀdx < 0 along a ray)."""
    ray = dx.copy()
    lb_fin, ub_fin = s.lb_fin, s.ub_fin
    # Project onto the box's recession cone.
    ray[lb_fin & ub_fin] = 0.0
    ray[lb_fin & ~ub_fin] = np.maximum(ray[lb_fin & ~ub_fin], 0.0)
    ray[~lb_fin & ub_fin] = np.minimum(ray[~lb_fin & ub_fin], 0.0)
    norm = np.maximum.reduce(np.abs(ray)) if ray.size else 0.0
    if norm <= 1e-12:
        return False
    ray /= norm
    kd = s.k @ ray
    bound = tol * s.k_scale
    if s.num_eq and np.maximum.reduce(np.abs(kd[: s.num_eq]), initial=0.0) > bound:
        return False
    if s.num_eq < s.m and np.minimum.reduce(kd[s.num_eq:], initial=0.0) < -bound:
        return False
    descent = float(s.c_hat @ ray)
    return descent < -tol * s.c_scale


def _solve_box_only(s: _Saddle) -> PDHGResult:
    """Closed form for LPs whose rows constrain nothing (m = 0 or K = 0)."""
    if np.any(s.lb > s.ub):
        return PDHGResult(status=LPStatus.INFEASIBLE)
    x = np.where(s.c_hat > 0, s.lb, np.where(s.c_hat < 0, s.ub, 0.0))
    x = np.clip(np.where(np.isfinite(x), x, 0.0), s.lb, s.ub)
    unbounded = ((s.c_hat > 0) & ~np.isfinite(s.lb)) | (
        (s.c_hat < 0) & ~np.isfinite(s.ub)
    )
    if unbounded.any():
        return PDHGResult(status=LPStatus.UNBOUNDED)
    # Zero-matrix rows constrain nothing but their rhs must hold.
    bad_eq = s.num_eq and np.max(np.abs(s.q[: s.num_eq]), initial=0.0) > 0
    bad_ineq = s.num_eq < s.m and np.max(s.q[s.num_eq:], initial=0.0) > 0
    if bad_eq or bad_ineq:
        return PDHGResult(status=LPStatus.INFEASIBLE)
    p = float(s.c_hat @ x)
    return PDHGResult(
        status=LPStatus.OPTIMAL,
        objective=-p,
        x=x,
        y=np.zeros(s.m),
        reduced_costs=s.c_hat.copy(),
        primal_residual=0.0,
        dual_residual=0.0,
        gap=0.0,
        primal_objective_min=p,
        dual_objective_min=p,
    )


#: A warm start for one member: ``(x, y)`` in the saddle's own space.
WarmStart = Optional[Tuple[np.ndarray, np.ndarray]]

#: Power-iteration steps a check spends on the face norms.  The whole
#: matrix gets :data:`POWER_ITERATIONS` once; faces are measured
#: at every check, and refused steps catch what a short measurement
#: misses, so a few steps are the honest price.
FACE_POWER_ITERATIONS = 3


@dataclass
class _Member:
    """Restart-span bookkeeping for one lockstep member."""

    stats: PDHGStats
    #: Per-member progress monitor; only under an active guard context.
    watchdog: Optional[IterationWatchdog] = None
    score_at_restart: float = np.inf
    last_candidate_score: float = np.inf
    span_start: int = 0
    ray_streak_infeasible: int = 0
    ray_streak_unbounded: int = 0
    #: Best-scoring ``(x, y, pr, dr, gap, p, d, kt_y)`` of the last check
    #: (x, y scaled) — the point a member stopped by a limit reports.
    candidate: Optional[tuple] = None


def _lockstep_pdhg(
    saddles: Sequence[_Saddle],
    options: PDHGOptions,
    hook: PDHGCostHook = NULL_PDHG_HOOK,
    initial: Optional[Sequence[WarmStart]] = None,
) -> Tuple[List[PDHGResult], int]:
    """The restarted-PDHG loop: k same-shape saddles advanced in lockstep.

    Returns the per-member results and the number of lockstep sweeps.
    ``initial`` seeds members from given iterates; no entry point passes
    it yet — it is kept for starting a node LP from its parent's iterate.
    A member that terminates is *frozen*: its result is built on the
    spot and its step ceiling drops to zero, so the sweep body stays
    unconditional (a frozen row is a fixed point nobody reads again)
    while the live rows advance exactly as if it were still masked.
    """
    k = len(saddles)
    m, n = saddles[0].m, saddles[0].n
    num_eq = saddles[0].num_eq
    if initial is None:
        initial = [None] * k
    for i, start in enumerate(initial):
        if start is not None and (
            np.shape(start[0]) != (n,) or np.shape(start[1]) != (m,)
        ):
            raise ShapeError(
                f"warm start of member {i} must have shapes ({n},) and ({m},), "
                f"got {np.shape(start[0])} and {np.shape(start[1])}"
            )

    if m == 0 or all(not np.any(s.k) for s in saddles):
        # No (effective) rows anywhere: nothing to sweep.
        return [_solve_box_only(s) for s in saddles], 0

    max_iterations = options.max_iterations
    if max_iterations is None:
        max_iterations = 4000 + 200 * (m + n)

    # The one place the batch layout is decided; device hooks price
    # plain GEMMs or batched GEMVs from it.
    shared = all(np.array_equal(saddles[0].k, s.k) for s in saddles[1:])
    hook.on_layout(k, shared)

    # Conditioning: every member gets its own Ruiz scaling (one LP and
    # sibling node LPs share one), so who a member is batched with never
    # decides how its rows are conditioned.
    scalings = [
        ruiz_equilibrate(s.k, RUIZ_ITERATIONS)
        for s in (saddles[:1] if shared else saddles)
    ]
    d_row = np.broadcast_to(np.stack([r for r, _ in scalings]), (k, m))
    d_col = np.broadcast_to(np.stack([c for _, c in scalings]), (k, n))
    if shared:
        ks = saddles[0].k * d_row[0][:, None] * d_col[0][None, :]  # (m, n)
        ks_t = ks.T

        def k_t(v: np.ndarray) -> np.ndarray:                     # (k, m) → (k, n)
            return v @ ks

        def k_x(v: np.ndarray) -> np.ndarray:                     # (k, n) → (k, m)
            return v @ ks_t
    else:
        ks = np.stack([s.k for s in saddles]) * d_row[:, :, None] * d_col[:, None, :]

        def k_t(v: np.ndarray) -> np.ndarray:
            return np.einsum("kmn,km->kn", ks, v)

        def k_x(v: np.ndarray) -> np.ndarray:
            return np.einsum("kmn,kn->km", ks, v)
    # One norm for a shared K, else one batched iteration over the stack.
    norms = np.broadcast_to(power_iteration_norm(ks, POWER_ITERATIONS, hook), (k,))
    qs = np.stack([s.q for s in saddles]) * d_row                 # (k, m)
    cs = np.stack([s.c_hat for s in saddles]) * d_col             # (k, n)
    lbs = np.stack([s.lb for s in saddles]) / d_col
    ubs = np.stack([s.ub for s in saddles]) / d_col

    # A member's step is ``STEP_SIZE_SCALE`` of its ceiling: 1/‖K‖₂ of
    # the face it moves on — at the start all of K (a zero norm estimate,
    # all-zero or non-finite K, falls back to a unit scale rather than
    # dividing by nothing), re-measured at each check — lowered to every
    # step limit its proposals run into.  τ = η/ω and σ = ηω are derived
    # per sweep.
    ceiling = 1.0 / np.where(norms > 0, norms, 1.0)
    c_norms = np.linalg.norm(cs, axis=1)
    q_norms = np.linalg.norm(qs, axis=1)
    omega = np.where(
        (c_norms > 1e-12) & (q_norms > 1e-12), c_norms / np.maximum(q_norms, 1e-12), 1.0
    )

    x = np.clip(np.zeros((k, n)), lbs, ubs)
    y = np.zeros((k, m))
    for i, start in enumerate(initial):
        if start is not None:
            x0, y0 = (np.asarray(v, dtype=np.float64) for v in start)
            x[i] = np.clip(x0 / d_col[i], lbs[i], ubs[i])
            y[i] = y0 / d_row[i]
            y[i, num_eq:] = np.maximum(y[i, num_eq:], 0.0)
    # Kᵀy rides along with y: zero at a cold start, one product (priced
    # as a setup pair) when some member brings a warm y₀.
    if y.any():
        hook.on_setup(k, m, n)
    kty = k_t(y)                                                  # (k, n)
    x_anchor, y_anchor = x.copy(), y.copy()                       # span starts
    sum_x, sum_y = np.zeros((k, n)), np.zeros((k, m))
    #: Accepted steps summed into each span average; refused steps.
    navg = np.zeros(k, dtype=np.int64)
    rejected = np.zeros(k, dtype=np.int64)

    guard_ctx = guard_budget.active()
    members = [
        _Member(
            stats=PDHGStats(power_iterations=POWER_ITERATIONS),
            watchdog=(
                IterationWatchdog("pdhg", options=guard_ctx.watchdog_options)
                if guard_ctx is not None
                else None
            ),
        )
        for _ in range(k)
    ]
    results: List[Optional[PDHGResult]] = [None] * k
    active = np.ones(k, dtype=bool)
    eps = options.tolerance
    sweeps = 0

    def freeze(i: int, status: LPStatus, candidate: Optional[tuple] = None) -> None:
        """Stop member i with its outcome (a bare status if no point)."""
        if candidate is None:
            results[i] = PDHGResult(status=status, stats=members[i].stats)
        else:
            xv, yv, pr, dr, gp, p, d, kt_y = candidate
            results[i] = PDHGResult(
                status=status,
                objective=-p,
                x=xv * d_col[i],
                y=yv * d_row[i],
                reduced_costs=saddles[i].c_hat - kt_y,
                primal_residual=pr,
                dual_residual=dr,
                gap=gp,
                primal_objective_min=p,
                dual_objective_min=d,
                stats=members[i].stats,
            )
        members[i].stats.rejected_steps = int(rejected[i])
        active[i] = False
        ceiling[i] = 0.0

    for i, s in enumerate(saddles):
        if np.any(s.lb > s.ub):
            freeze(i, LPStatus.INFEASIBLE)

    timed_out = False
    while active.any() and sweeps < max_iterations:
        if guard_ctx is not None and guard_ctx.deadline_hit():
            timed_out = True
            break
        steps = min(CHECK_EVERY, max_iterations - sweeps)
        width = int(active.sum())
        for _ in range(steps):
            hook.on_iteration(width, m, n)
            eta = STEP_SIZE_SCALE * ceiling
            # clip(v, lb, ub), bit for bit.
            x_new = np.minimum(np.maximum(x - (eta / omega)[:, None] * (cs - kty), lbs), ubs)
            y_new = y + (eta * omega)[:, None] * (qs - k_x(2.0 * x_new - x))
            if num_eq < m:
                y_new[:, num_eq:] = np.maximum(y_new[:, num_eq:], 0.0)
            kty_new = k_t(y_new)
            limit = _step_limit(omega, x_new - x, y_new - y, kty_new - kty)
            accept = eta <= limit
            refused = ~accept
            np.minimum(ceiling, limit, out=ceiling)
            rejected += refused
            navg += accept
            # A refused row keeps its iterate and adds nothing to its
            # member's span average; a frozen member's sums are never read.
            x_new[refused] = x[refused]
            y_new[refused] = y[refused]
            kty_new[refused] = kty[refused]
            x, y, kty = x_new, y_new, kty_new
            sum_x[accept] += x[accept]
            sum_y[accept] += y[accept]
        sweeps += steps

        hook.on_check(width, m, n)
        # A member's check changes its own row only, so every row's
        # finiteness can be read up front.
        finite = np.logical_and.reduce(np.isfinite(x), axis=1)
        finite &= np.logical_and.reduce(np.isfinite(y), axis=1)
        for i in np.nonzero(active)[0]:
            s = saddles[i]
            mem = members[i]
            mem.stats.iterations += steps
            if not finite[i]:
                # Poisoned member: freeze it as NUMERICAL (and scrub its
                # row) so the rest of the lockstep batch keeps converging.
                freeze(i, LPStatus.NUMERICAL)
                x[i], y[i], kty[i] = 0.0, 0.0, 0.0
                if guard_ctx is not None:
                    guard_ctx.note(
                        "watchdog",
                        engine="pdhg",
                        signal="nonfinite",
                        member=int(i),
                    )
                continue
            # Score the iterate and the span average, in original data.
            candidates = [(x[i], y[i])]
            if navg[i] > 1:
                candidates.append((sum_x[i] / navg[i], sum_y[i] / navg[i]))
            best = None
            for xv, yv in candidates:
                kkt = _kkt(s, xv * d_col[i], yv * d_row[i])
                mem.stats.kkt_checks += 1
                sc = _score(*kkt[:3])
                if best is None or sc < best[0]:
                    best = (sc, xv, yv, *kkt)
            score, xv, yv, pr, dr, gp, _, _, kt_y = best
            mem.candidate = best[1:]

            if pr <= eps and dr <= eps and gp <= eps:
                freeze(i, LPStatus.OPTIMAL, mem.candidate)
                continue

            if mem.watchdog is not None:
                signal = mem.watchdog.observe(
                    mem.stats.iterations, merit=score, vector=xv
                )
                if not signal.ok:
                    freeze(i, LPStatus.NUMERICAL)
                    continue

            # Farkas-ray detection from the displacement over this span.
            dxo = (x[i] - x_anchor[i]) * d_col[i]
            dyo = (y[i] - y_anchor[i]) * d_row[i]
            if _check_dual_ray(s, dyo, RAY_TOLERANCE):
                mem.ray_streak_infeasible += 1
            else:
                mem.ray_streak_infeasible = 0
            if _check_primal_ray(s, dxo, RAY_TOLERANCE):
                mem.ray_streak_unbounded += 1
            else:
                mem.ray_streak_unbounded = 0
            if mem.ray_streak_infeasible >= 2:
                freeze(i, LPStatus.INFEASIBLE)
                continue
            if mem.ray_streak_unbounded >= 2:
                freeze(i, LPStatus.UNBOUNDED)
                continue

            span_len = mem.stats.iterations - mem.span_start
            do_restart = (
                score <= RESTART_SUFFICIENT * mem.score_at_restart
                or (
                    score <= RESTART_NECESSARY * mem.score_at_restart
                    and score > mem.last_candidate_score
                )
                or span_len >= ARTIFICIAL_RESTART * max(mem.stats.iterations, 1)
            )
            mem.last_candidate_score = score
            if do_restart:
                mem.stats.restarts += 1
                obs.event(
                    "lp.pdhg.restart", category="lp",
                    member=int(i), iteration=mem.stats.iterations, score=score,
                )
                # The restart point's Kᵀy is the one its KKT evaluation
                # computed (unscaled data), moved into the scaled space.
                x[i], y[i], kty[i] = xv, yv, kt_y * d_col[i]
                # Rebalance the primal weight from the span's movement.
                dx = x[i] - x_anchor[i]
                dy = y[i] - y_anchor[i]
                dx_norm = np.sqrt(dx.dot(dx))
                dy_norm = np.sqrt(dy.dot(dy))
                if dx_norm > 1e-12 and dy_norm > 1e-12:
                    theta = PRIMAL_WEIGHT_SMOOTHING
                    omega[i] = np.exp(
                        theta * np.log(dy_norm / dx_norm)
                        + (1.0 - theta) * np.log(omega[i])
                    )
                x_anchor[i], y_anchor[i] = x[i], y[i]
                sum_x[i] = 0.0
                sum_y[i] = 0.0
                navg[i] = 0
                mem.span_start = mem.stats.iterations
                mem.score_at_restart = score
                mem.last_candidate_score = np.inf

        live = np.nonzero(active)[0]
        if live.size:
            # Each check re-measures the step ceilings of the members still
            # running: 1/‖K‖₂ of the face a member's point (the restart
            # point, if it just restarted) moves on — the columns of
            # variables strictly inside their box, the rows of equalities
            # and of positive duals — by a few batched power-iteration
            # steps.  What the face leaves out may come back before the
            # next check, and a short measurement reads low; either way
            # the proposals' own limits then pull the ceiling down.  An
            # empty face measures nothing and keeps the old ceiling.
            free = (x[live] > lbs[live]) & (x[live] < ubs[live])
            tight = y[live] > 0.0
            tight[:, :num_eq] = True
            face = (ks if shared else ks[live]) * tight[:, :, None]
            face *= free[:, None, :]
            sigma = power_iteration_norm(face, FACE_POWER_ITERATIONS, hook)
            ceiling[live] = np.divide(1.0, sigma, out=ceiling[live], where=sigma > 0)

    # Members stopped by a limit report the last check's best candidate
    # (the raw start point if the deadline expired before any sweep).
    tail_status = LPStatus.TIME_LIMIT if timed_out else LPStatus.ITERATION_LIMIT
    for i in np.nonzero(active)[0]:
        mem = members[i]
        if mem.candidate is None:
            mem.stats.kkt_checks += 1
            mem.candidate = (
                x[i], y[i], *_kkt(saddles[i], x[i] * d_col[i], y[i] * d_row[i])
            )
        freeze(i, tail_status, mem.candidate)
    return results, sweeps


def solve_lp_pdhg(lp: LinearProgram, options: Optional[PDHGOptions] = None) -> PDHGResult:
    """Solve a (maximization) :class:`LinearProgram` by restarted PDHG.

    Bounds are handled natively as projections — no slack rows, no
    variable splitting — so the iteration works on the original (m, n)
    shape, which is what makes the batched variant one fused GEMM.
    """
    with obs.span("lp.pdhg", category="lp", m=lp.num_ub_rows + lp.num_eq_rows, n=lp.n) as sp:
        (result,), _ = _lockstep_pdhg([saddle_from_lp(lp)], options or PDHGOptions())
        sp.set(
            status=result.status.value,
            iterations=result.stats.iterations,
            restarts=result.stats.restarts,
            rejected_steps=result.stats.rejected_steps,
        )
        return result
