"""Mehrotra predictor–corrector interior-point method.

Paper §2.3: interior-point methods are "the preferred method for solving
sparse problems" and several GPU implementations exist.  This solver
provides the interior-point alternative to the simplex for the E3
dense/sparse code-path experiments: its per-iteration work is one
normal-equations Cholesky (``A D Aᵀ``), the kernel whose dense/sparse
GPU efficiency gap the paper discusses.

Standard form, maximization: ``max cᵀx, Ax = b, 0 ≤ x ≤ upper`` is
solved as the equivalent minimization of ``−cᵀx`` with each finite
``upper`` entry posed as a row (``StandardFormLP.with_bounds_as_rows``;
a column fixed at 0 is left out).  Implementation follows Wright's
*Primal-Dual Interior-Point Methods* (Ch. 10): affine predictor,
centering corrector with σ = (μ_aff/μ)³, 0.995 fraction-to-boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import NotPositiveDefiniteError, ReproError
from repro.guard import budget as guard_budget
from repro.guard.watchdog import IterationWatchdog
from repro.la.dense import back_substitution, cholesky, forward_substitution
from repro.lp.problem import StandardFormLP
from repro.lp.result import LPResult, LPStatus

#: Initial diagonal regularization of the normal equations.
REGULARIZATION = 1e-10
#: Relative tolerance on primal/dual residuals and duality gap.
TOLERANCE = 1e-8


@dataclass
class IPMOptions:
    """Interior-point tuning knobs."""

    max_iterations: int = 100

    def __post_init__(self):
        if self.max_iterations <= 0:
            raise ReproError(
                f"max_iterations must be positive, got {self.max_iterations!r}"
            )


def _solve_normal_equations(
    a: np.ndarray, d: np.ndarray, rhs: np.ndarray, reg: float
) -> np.ndarray:
    """Solve (A D Aᵀ + reg·I) dy = rhs via our Cholesky."""
    m = a.shape[0]
    attempt = reg
    for _ in range(8):
        try:
            normal = (a * d) @ a.T + attempt * np.eye(m)
            low = cholesky(normal)
            y = forward_substitution(low, rhs)
            return back_substitution(low.T, y)
        except NotPositiveDefiniteError:
            attempt = max(attempt * 100.0, 1e-12)
    raise NotPositiveDefiniteError(
        f"normal equations not SPD even with regularization {attempt:g}"
    )


def interior_point_solve(
    sf: StandardFormLP, options: Optional[IPMOptions] = None
) -> LPResult:
    """Solve ``max cᵀx + offset, Ax = b, 0 ≤ x ≤ upper`` by Mehrotra's method.

    Returns OPTIMAL with an interior (non-basic) solution, ``x_standard``
    over ``sf``'s columns and ``duals`` over its rows (the bound rows'
    duals are dropped), or ITERATION_LIMIT when convergence fails
    (degenerate/unbounded problems should use the simplex path instead).
    """
    options = options or IPMOptions()
    m_in, n_in = sf.a.shape
    sf = sf.with_bounds_as_rows()
    live = sf.upper > 0.0  # a column fixed at 0 stays out, at 0
    a = sf.a[:, live]
    b = sf.b
    c = -sf.c[live]  # minimize -c^T x
    m, n = a.shape
    if m == 0 or n == 0:
        return LPResult(status=LPStatus.ITERATION_LIMIT)

    # Starting point (Mehrotra's heuristic, simplified).
    x = np.ones(n)
    s = np.ones(n)
    y = np.zeros(m)
    norm_scale = 1.0 + max(np.linalg.norm(b), np.linalg.norm(c))

    guard_ctx = guard_budget.active()
    watchdog = (
        IterationWatchdog("interior_point", options=guard_ctx.watchdog_options)
        if guard_ctx is not None
        else None
    )

    for iteration in range(options.max_iterations):
        r_p = b - a @ x
        r_d = c - a.T @ y - s
        mu = float(x @ s) / n

        if guard_ctx is not None:
            if guard_ctx.deadline_hit():
                return LPResult(status=LPStatus.TIME_LIMIT, iterations=iteration)
            signal = watchdog.observe(iteration, merit=mu, vector=x)
            if not signal.ok:
                return LPResult(status=LPStatus.NUMERICAL, iterations=iteration)

        if (
            np.linalg.norm(r_p) <= TOLERANCE * norm_scale
            and np.linalg.norm(r_d) <= TOLERANCE * norm_scale
            and mu <= TOLERANCE
        ):
            x_standard = np.zeros(sf.n)
            x_standard[live] = x
            return LPResult(
                status=LPStatus.OPTIMAL,
                objective=float(-c @ x) + sf.offset,
                x_standard=x_standard[:n_in],
                duals=-y[:m_in],
                iterations=iteration,
            )

        d = x / s

        # Affine (predictor) direction.
        rhs_aff = r_p + (a * d) @ r_d + a @ x
        # note: A S⁻¹(XSe) = A x, so the -r_xs term contributes +A x.
        dy_aff = _solve_normal_equations(a, d, rhs_aff, REGULARIZATION)
        ds_aff = r_d - a.T @ dy_aff
        dx_aff = -x - d * ds_aff

        alpha_p_aff = _step_length(x, dx_aff)
        alpha_d_aff = _step_length(s, ds_aff)
        mu_aff = float((x + alpha_p_aff * dx_aff) @ (s + alpha_d_aff * ds_aff)) / n
        sigma = (mu_aff / mu) ** 3 if mu > 0 else 0.1

        # Corrector: r_xs = -XSe - dXaff dSaff e + sigma*mu*e.
        r_xs = -x * s - dx_aff * ds_aff + sigma * mu
        rhs = r_p + (a * d) @ r_d - a @ (r_xs / s)
        dy = _solve_normal_equations(a, d, rhs, REGULARIZATION)
        ds = r_d - a.T @ dy
        dx = r_xs / s - d * ds

        alpha_p = min(1.0, 0.995 * _step_length(x, dx, cap=np.inf))
        alpha_d = min(1.0, 0.995 * _step_length(s, ds, cap=np.inf))
        x = x + alpha_p * dx
        s = s + alpha_d * ds
        y = y + alpha_d * dy
        # Keep strictly interior.
        x = np.maximum(x, 1e-14)
        s = np.maximum(s, 1e-14)

    return LPResult(status=LPStatus.ITERATION_LIMIT, iterations=options.max_iterations)


def _step_length(v: np.ndarray, dv: np.ndarray, cap: float = 1.0) -> float:
    """Largest α ≤ cap with v + α dv ≥ 0."""
    negative = dv < 0
    if not negative.any():
        return float(cap) if np.isfinite(cap) else 1.0
    limit = float(np.min(-v[negative] / dv[negative]))
    return min(cap, limit) if np.isfinite(cap) else limit
