"""The PDHG checks as they stood before their host calls were cut, kept
verbatim as the test oracle.

``_kkt``, ``_step_limit`` and both ray checks exactly as written with
``np.linalg.norm``, ``np.where``, ``full_like`` and per-check bound
masks; ``tests/lp/test_pdhg_reference.py`` holds ``repro.lp.pdhg`` to
them bit for bit, sign bit included.  Test-only: nothing under ``src/``
imports this.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.lp.pdhg import _Saddle


def _kkt(
    s: _Saddle, x: np.ndarray, y: np.ndarray
) -> Tuple[float, float, float, float, float, np.ndarray]:
    """Relative KKT residuals at (x, y) in the original (unscaled) data.

    Returns ``(primal_res, dual_res, gap, p, d, kt_y)`` where ``p``/``d``
    are the min-form primal/dual objectives and ``kt_y = Kᵀy`` is the
    product the evaluation already paid for (a restart re-uses it).
    """
    kx = s.k @ x
    resid = kx - s.q
    if s.num_eq < s.m:
        # Inequality rows Gx ≥ h: only violations below q count.
        resid[s.num_eq:] = np.minimum(resid[s.num_eq:], 0.0)
    q_scale = 1.0 + np.linalg.norm(s.q)
    primal_res = float(np.linalg.norm(resid)) / q_scale

    kt_y = s.k.T @ y
    r = s.c_hat - kt_y
    lb_fin = np.isfinite(s.lb)
    ub_fin = np.isfinite(s.ub)
    # A positive reduced cost is absorbed by a finite lower bound, a
    # negative one by a finite upper bound; otherwise it is a violation.
    viol = np.where(~ub_fin, np.maximum(-r, 0.0), 0.0)
    viol += np.where(~lb_fin, np.maximum(r, 0.0), 0.0)
    c_scale = 1.0 + np.linalg.norm(s.c_hat)
    dual_res = float(np.linalg.norm(viol)) / c_scale

    p = float(s.c_hat @ x)
    d = float(s.q @ y)
    pos = np.maximum(r, 0.0)
    neg = np.minimum(r, 0.0)
    if lb_fin.any():
        d += float(s.lb[lb_fin] @ pos[lb_fin])
    if ub_fin.any():
        d += float(s.ub[ub_fin] @ neg[ub_fin])
    gap = abs(p - d) / (1.0 + abs(p) + abs(d))
    return primal_res, dual_res, gap, p, d, kt_y


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
    """
    movement = omega * np.einsum("kn,kn->k", dx, dx)
    movement += np.einsum("km,km->k", dy, dy) / omega
    interaction = 2.0 * np.abs(np.einsum("kn,kn->k", dx, dkty))
    return np.divide(
        movement, interaction, out=np.full_like(omega, np.inf), where=interaction > 0
    )


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
    norm = np.max(np.abs(ray)) if ray.size else 0.0
    if norm <= 1e-12:
        return False
    ray /= norm
    k_scale = max(1.0, float(np.max(np.abs(s.k)))) if s.k.size else 1.0
    r = s.k.T @ ray
    pos = r > tol * k_scale
    neg = r < -tol * k_scale
    if np.any(pos & ~np.isfinite(s.ub)) or np.any(neg & ~np.isfinite(s.lb)):
        return False
    support = 0.0
    if pos.any():
        support += float(r[pos] @ s.ub[pos])
    if neg.any():
        support += float(r[neg] @ s.lb[neg])
    margin = float(s.q @ ray) - support
    return margin > tol * (1.0 + np.linalg.norm(s.q))


def _check_primal_ray(s: _Saddle, dx: np.ndarray, tol: float) -> bool:
    """Certificate of unboundedness (min form: ĉᵀdx < 0 along a ray)."""
    ray = dx.copy()
    lb_fin = np.isfinite(s.lb)
    ub_fin = np.isfinite(s.ub)
    # Project onto the box's recession cone.
    ray[lb_fin & ub_fin] = 0.0
    ray[lb_fin & ~ub_fin] = np.maximum(ray[lb_fin & ~ub_fin], 0.0)
    ray[~lb_fin & ub_fin] = np.minimum(ray[~lb_fin & ub_fin], 0.0)
    norm = np.max(np.abs(ray)) if ray.size else 0.0
    if norm <= 1e-12:
        return False
    ray /= norm
    k_scale = max(1.0, float(np.max(np.abs(s.k)))) if s.k.size else 1.0
    kd = s.k @ ray
    if s.num_eq and np.max(np.abs(kd[: s.num_eq]), initial=0.0) > tol * k_scale:
        return False
    if s.num_eq < s.m and np.min(kd[s.num_eq:], initial=0.0) < -tol * k_scale:
        return False
    descent = float(s.c_hat @ ray)
    return descent < -tol * (1.0 + np.linalg.norm(s.c_hat))
