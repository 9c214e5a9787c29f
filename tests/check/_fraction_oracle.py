"""Exact solution certificates in rational arithmetic.

Every float64 is exactly representable as a :class:`fractions.Fraction`,
so a claimed solution can be audited *exactly*: constraint activities,
bound violations, integrality residuals, and objective values computed
here carry no rounding error whatsoever.  The float solvers are allowed
their documented tolerances — the certificate compares the exactly
computed violation against the exactly represented tolerance — but they
cannot hide a genuinely wrong answer behind accumulated float noise,
which is precisely how a silently mis-solving kernel would present.

Checks are scaled relative to the data magnitude they test against
(``tol * (1 + |b_i|)`` for row ``i``), matching how the float stack
treats its own residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional

import numpy as np

from repro.config import DEFAULT_TOLERANCES, Tolerances
from repro.errors import CertificateViolation
from repro.lp.problem import LinearProgram
from repro.lp.result import LPResult, LPStatus
from repro.mip.problem import MIPProblem
from repro.mip.result import MIPResult, MIPStatus

#: Slack allowed between a claimed objective and the exact cᵀx, relative
#: to the objective magnitude (float dot products of ~1e3 terms).
OBJECTIVE_CONSISTENCY_RTOL = 1e-9


def _frac(value: float) -> Fraction:
    """Exact rational of one finite float."""
    return Fraction(float(value))


def _frac_vec(arr: np.ndarray) -> List[Fraction]:
    return [_frac(v) for v in arr]


def _dot(row: np.ndarray, xf: List[Fraction]) -> Fraction:
    """Exact dot product of a float row with a rational vector."""
    total = Fraction(0)
    for j, v in enumerate(row):
        if v != 0.0:
            total += _frac(v) * xf[j]
    return total


@dataclass
class CertificateCheck:
    """One exact check: the worst violation found vs. its tolerance."""

    name: str
    ok: bool
    #: Worst violation (exact arithmetic, rounded only for display).
    violation: float
    tolerance: float
    detail: str = ""


@dataclass
class CertificateReport:
    """Outcome of certifying one solution."""

    problem_name: str
    checks: List[CertificateCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every check passed."""
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> List[CertificateCheck]:
        """The checks that failed."""
        return [c for c in self.checks if not c.ok]

    def raise_for_failures(self) -> None:
        """Raise :class:`CertificateViolation` for the worst failure."""
        bad = self.failures
        if bad:
            worst = max(bad, key=lambda c: c.violation - c.tolerance)
            raise CertificateViolation(worst.name, worst.violation, worst.tolerance)

    def _add(
        self,
        name: str,
        violation: Fraction,
        tolerance: Fraction,
        detail: str = "",
    ) -> None:
        self.checks.append(
            CertificateCheck(
                name=name,
                ok=violation <= tolerance,
                violation=float(violation),
                tolerance=float(tolerance),
                detail=detail,
            )
        )


def _check_rows(
    report: CertificateReport,
    name: str,
    a: Optional[np.ndarray],
    b: Optional[np.ndarray],
    xf: List[Fraction],
    tol: Fraction,
    equality: bool,
) -> None:
    """Worst exact violation of ``Ax ≤ b`` (or ``= b``) over all rows."""
    if a is None:
        return
    worst = Fraction(0)
    worst_tol = tol
    worst_row = -1
    for i in range(a.shape[0]):
        activity = _dot(a[i], xf)
        resid = activity - _frac(b[i])
        violation = abs(resid) if equality else max(Fraction(0), resid)
        allowed = tol * (1 + abs(_frac(b[i])))
        # Rank rows by tolerance-normalized violation so a tight row is
        # not masked by a slack row with a bigger absolute residual.
        if worst_row < 0 or violation * worst_tol > worst * allowed:
            worst, worst_tol, worst_row = violation, allowed, i
    report._add(name, worst, worst_tol, detail=f"worst row {worst_row}")


def _check_bounds(
    report: CertificateReport,
    lb: np.ndarray,
    ub: np.ndarray,
    xf: List[Fraction],
    tol: Fraction,
) -> None:
    worst = Fraction(0)
    worst_tol = tol
    worst_var = -1
    for j, xj in enumerate(xf):
        for bound, sign in ((lb[j], 1), (ub[j], -1)):
            if not np.isfinite(bound):
                continue
            violation = max(Fraction(0), sign * (_frac(bound) - xj))
            allowed = tol * (1 + abs(_frac(bound)))
            if worst_var < 0 or violation * worst_tol > worst * allowed:
                worst, worst_tol, worst_var = violation, allowed, j
    report._add("bounds", worst, worst_tol, detail=f"worst var {worst_var}")


def certify_mip_solution(
    problem: MIPProblem,
    x: np.ndarray,
    objective: Optional[float] = None,
    best_bound: Optional[float] = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
    *,
    feasibility_tol: Optional[float] = None,
    integrality_tol: Optional[float] = None,
) -> CertificateReport:
    """Exactly audit a claimed MIP solution.

    Checks, all in rational arithmetic: ≤-row and =-row feasibility,
    bound-box feasibility, integrality of the integer variables,
    consistency of the claimed ``objective`` with the exact ``cᵀx``, and
    (when given) that the claimed dual ``best_bound`` does not cut off
    the exact objective.

    ``feasibility_tol`` / ``integrality_tol`` override the vertex-solver
    defaults (``tol.feasibility × 10`` / ``tol.integrality × 10``) with
    an explicit per-check tolerance, used **as given** (still scaled by
    the data magnitude, ``tol·(1+|bᵢ|)`` per row).  Pass the declared
    accuracy of an inexact solver here — e.g. a first-order engine's eps
    — instead of pretending its solutions are exact vertices.
    """
    report = CertificateReport(problem_name=problem.name)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (problem.n,):
        report.checks.append(
            CertificateCheck(
                name="shape",
                ok=False,
                violation=float(x.size),
                tolerance=float(problem.n),
                detail=f"solution has shape {x.shape}, expected ({problem.n},)",
            )
        )
        return report
    xf = _frac_vec(x)
    feas = (
        _frac(tol.feasibility) * 10
        if feasibility_tol is None
        else _frac(feasibility_tol)
    )

    _check_rows(report, "rows_ub", problem.a_ub, problem.b_ub, xf, feas, equality=False)
    _check_rows(report, "rows_eq", problem.a_eq, problem.b_eq, xf, feas, equality=True)
    _check_bounds(report, problem.lb, problem.ub, xf, feas)

    # Integrality: exact distance to the nearest integer.
    worst = Fraction(0)
    worst_var = -1
    for j in np.nonzero(problem.integer)[0]:
        resid = abs(xf[j] - round(xf[j]))
        if resid > worst:
            worst, worst_var = resid, int(j)
    report._add(
        "integrality",
        worst,
        (
            _frac(tol.integrality) * 10
            if integrality_tol is None
            else _frac(integrality_tol)
        ),
        detail=f"worst var {worst_var}",
    )

    exact_obj = _dot(problem.c, xf)
    if objective is not None:
        allowed = _frac(OBJECTIVE_CONSISTENCY_RTOL) * (1 + abs(exact_obj))
        report._add(
            "objective",
            abs(_frac(objective) - exact_obj),
            allowed,
            detail=f"claimed {objective:.12g}, exact {float(exact_obj):.12g}",
        )
    if best_bound is not None and np.isfinite(best_bound):
        # The dual bound must sit at or above the exact primal value
        # (maximization), up to the solver's own declared gap.
        slack = _frac(tol.mip_gap_abs) + _frac(tol.mip_gap) * abs(exact_obj)
        report._add(
            "dual_bound",
            max(Fraction(0), exact_obj - _frac(best_bound)),
            slack,
            detail=f"bound {best_bound:.12g}, exact objective {float(exact_obj):.12g}",
        )
    return report


def certify_mip_result(
    problem: MIPProblem,
    result: MIPResult,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> CertificateReport:
    """Certify a :class:`MIPResult` (only terminal-with-solution states).

    ``OPTIMAL``/``NODE_LIMIT`` results with an incumbent get the full
    solution audit; an ``OPTIMAL`` result *without* an incumbent is
    itself a violation.  ``INFEASIBLE``/``UNBOUNDED`` claims need dual
    rays to certify and are recorded as skipped (vacuously ok).
    """
    if result.x is not None:
        return certify_mip_solution(
            problem,
            result.x,
            objective=result.objective,
            best_bound=result.best_bound if np.isfinite(result.best_bound) else None,
            tol=tol,
        )
    report = CertificateReport(problem_name=problem.name)
    if result.status is MIPStatus.OPTIMAL:
        report.checks.append(
            CertificateCheck(
                name="status",
                ok=False,
                violation=1.0,
                tolerance=0.0,
                detail="OPTIMAL claimed without an incumbent solution",
            )
        )
    else:
        report.checks.append(
            CertificateCheck(
                name="status",
                ok=True,
                violation=0.0,
                tolerance=0.0,
                detail=f"{result.status.value}: no solution to audit",
            )
        )
    return report


def certify_lp_result(
    lp: LinearProgram,
    result: LPResult,
    tol: Tolerances = DEFAULT_TOLERANCES,
    *,
    feasibility_tol: Optional[float] = None,
    optimality_tol: Optional[float] = None,
) -> CertificateReport:
    """Certify an LP solve: primal feasibility plus a duality certificate.

    When the result carries standard-form duals and primal iterates, the
    full optimality certificate is audited exactly: dual feasibility
    (``Âᵀy ≥ ĉ``) and strong duality (``b̂ᵀy = ĉᵀx̂``) on the standard
    form the solver actually worked on.

    ``feasibility_tol`` / ``optimality_tol`` override the vertex-solver
    defaults with an explicit tolerance, used as given — the hook for
    auditing *inexact* solvers whose declared accuracy is wider than a
    pivoted vertex (a first-order engine's eps, an IPM's barrier gap).
    For PDHG results prefer :func:`certify_first_order_lp`, which audits
    the solver's actual relative-KKT contract.
    """
    name = getattr(lp, "name", "lp")
    report = CertificateReport(problem_name=name)
    if result.status is not LPStatus.OPTIMAL:
        report.checks.append(
            CertificateCheck(
                name="status",
                ok=True,
                violation=0.0,
                tolerance=0.0,
                detail=f"{result.status.value}: no solution to audit",
            )
        )
        return report
    if result.x is None:
        report.checks.append(
            CertificateCheck(
                name="status",
                ok=False,
                violation=1.0,
                tolerance=0.0,
                detail="OPTIMAL claimed without a primal solution",
            )
        )
        return report

    xf = _frac_vec(np.asarray(result.x, dtype=np.float64))
    feas = (
        _frac(tol.feasibility) * 10
        if feasibility_tol is None
        else _frac(feasibility_tol)
    )
    _check_rows(report, "rows_ub", lp.a_ub, lp.b_ub, xf, feas, equality=False)
    _check_rows(report, "rows_eq", lp.a_eq, lp.b_eq, xf, feas, equality=True)
    _check_bounds(report, lp.lb, lp.ub, xf, feas)

    exact_obj = _dot(lp.c, xf)
    allowed = _frac(OBJECTIVE_CONSISTENCY_RTOL) * (1 + abs(exact_obj))
    report._add(
        "objective",
        abs(_frac(result.objective) - exact_obj),
        allowed,
        detail=f"claimed {result.objective:.12g}, exact {float(exact_obj):.12g}",
    )

    if result.duals is not None and result.x_standard is not None:
        sf = lp.to_standard_form()
        for label, value, size in (
            ("duals", result.duals, sf.m),
            ("x_standard", result.x_standard, sf.n),
        ):
            if np.shape(value) != (size,):
                report.checks.append(
                    CertificateCheck(
                        name="shape",
                        ok=False,
                        violation=float(np.size(value)),
                        tolerance=float(size),
                        detail=f"{label} has shape {np.shape(value)}, expected ({size},)",
                    )
                )
                return report
        yf = _frac_vec(np.asarray(result.duals, dtype=np.float64))
        xs = _frac_vec(np.asarray(result.x_standard, dtype=np.float64))
        # Dual feasibility: reduced costs ĉ − Âᵀy ≤ 0 for every column
        # without an upper bound; a finite upper_j absorbs a positive
        # reduced cost into the dual objective as upper_j·d_j.
        worst = Fraction(0)
        worst_col = -1
        absorbed = Fraction(0)
        dual_tol = (
            _frac(tol.optimality) * 10
            if optimality_tol is None
            else _frac(optimality_tol)
        )
        for j in range(sf.n):
            aty = _dot(sf.a[:, j], yf)
            resid = max(Fraction(0), _frac(sf.c[j]) - aty)
            if np.isfinite(sf.upper[j]):
                absorbed += _frac(sf.upper[j]) * resid
            elif resid > worst:
                worst, worst_col = resid, j
        report._add(
            "dual_feasibility", worst, dual_tol, detail=f"worst column {worst_col}"
        )
        # Strong duality: ĉᵀx̂ == b̂ᵀy + Σ upper_j·max(d_j, 0).
        primal = _dot(sf.c, xs)
        dual = _dot(sf.b, yf) + absorbed
        report._add(
            "strong_duality",
            abs(primal - dual),
            (
                _frac(tol.optimality) * 100
                if optimality_tol is None
                else _frac(optimality_tol) * 10
            )
            * (1 + abs(primal)),
            detail=f"primal {float(primal):.12g}, dual {float(dual):.12g}",
        )
    return report


def certify_first_order_lp(
    lp: LinearProgram,
    result,
    eps: float = 1e-8,
) -> CertificateReport:
    """Exactly audit a :class:`repro.lp.pdhg.PDHGResult` against its contract.

    The PDHG solver promises a *relative KKT certificate* at accuracy
    ``eps`` (pass the ``PDHGOptions.tolerance`` the solve actually used):
    primal residual ``‖[Kx−q]₋‖₂ ≤ eps·(1+‖q‖₂)``, dual residual
    likewise against ``1+‖ĉ‖₂``, and gap ``|p−d| ≤ eps·(1+|p|+|d|)``,
    all on the minimization saddle form ``min ĉᵀx`` with ``ĉ = −c`` and
    rows ``K = [A_eq; −A_ub]``, ``q = [b_eq; −b_ub]``.

    Norm contracts involve irrational square roots, so the residual
    checks audit the *squared* form through the sound rational relaxation
    ``‖r‖² ≤ 2·eps²·(1+‖q‖²)`` — valid because
    ``(1+‖q‖)² ≤ 2·(1+‖q‖²)`` — keeping every comparison in ℚ.  A point
    the solver legitimately accepted always passes; a fabricated
    "optimal" point whose residuals exceed ``√2·eps`` at the natural
    scale cannot.

    Non-``OPTIMAL`` statuses carry no KKT point and are recorded as
    vacuously ok, mirroring :func:`certify_lp_result`.
    """
    name = getattr(lp, "name", "lp")
    report = CertificateReport(problem_name=name)
    if result.status is not LPStatus.OPTIMAL:
        report.checks.append(
            CertificateCheck(
                name="status",
                ok=True,
                violation=0.0,
                tolerance=0.0,
                detail=f"{result.status.value}: no solution to audit",
            )
        )
        return report
    if result.x is None or result.y is None:
        report.checks.append(
            CertificateCheck(
                name="status",
                ok=False,
                violation=1.0,
                tolerance=0.0,
                detail="OPTIMAL claimed without a primal/dual pair",
            )
        )
        return report

    xf = _frac_vec(np.asarray(result.x, dtype=np.float64))
    yf = _frac_vec(np.asarray(result.y, dtype=np.float64))
    epsf = _frac(eps)

    # Box feasibility.  The solver clips exactly in scaled space; the
    # unscaling multiply can leave at most rounding-level spill, well
    # inside the eps·(1+|bound|) budget.
    _check_bounds(report, lp.lb, lp.ub, xf, epsf)

    # Saddle rows [A_eq; −A_ub] with rhs q = [b_eq; −b_ub].
    rows: List[tuple] = []
    if lp.a_eq is not None:
        for i in range(lp.a_eq.shape[0]):
            rows.append((lp.a_eq[i], _frac(lp.b_eq[i]), True))
    if lp.a_ub is not None:
        for i in range(lp.a_ub.shape[0]):
            rows.append((-lp.a_ub[i], _frac(-lp.b_ub[i]), False))
    num_eq = lp.num_eq_rows
    if len(yf) != len(rows):
        report.checks.append(
            CertificateCheck(
                name="shape",
                ok=False,
                violation=float(len(yf)),
                tolerance=float(len(rows)),
                detail=f"dual vector has {len(yf)} rows, saddle has {len(rows)}",
            )
        )
        return report

    # Primal residual (squared) and the qᵀy part of the dual objective.
    q_sq = Fraction(0)
    resid_sq = Fraction(0)
    d = Fraction(0)
    for idx, (row, qi, is_eq) in enumerate(rows):
        q_sq += qi * qi
        resid = _dot(row, xf) - qi
        if not is_eq:
            # Inequality rows Kx ≥ q: only shortfalls violate.
            resid = min(resid, Fraction(0))
        resid_sq += resid * resid
        d += qi * yf[idx]
    report._add(
        "primal_residual_sq",
        resid_sq,
        2 * epsf * epsf * (1 + q_sq),
        detail="‖[Kx−q]₋‖² vs 2·eps²·(1+‖q‖²)",
    )

    # Exact reduced costs r = ĉ − Kᵀy, accumulated row-by-row.
    kty = [Fraction(0)] * lp.n
    for idx, (row, _, _) in enumerate(rows):
        yi = yf[idx]
        if yi:
            for j, v in enumerate(row):
                if v != 0.0:
                    kty[j] += _frac(v) * yi

    c_sq = Fraction(0)
    dual_viol_sq = Fraction(0)
    p = Fraction(0)
    for j in range(lp.n):
        c_hat = -_frac(lp.c[j])
        c_sq += c_hat * c_hat
        p += c_hat * xf[j]
        r = c_hat - kty[j]
        lb_fin = bool(np.isfinite(lp.lb[j]))
        ub_fin = bool(np.isfinite(lp.ub[j]))
        # A positive reduced cost must be absorbed by a finite lower
        # bound, a negative one by a finite upper bound.
        if r > 0:
            if lb_fin:
                d += _frac(lp.lb[j]) * r
            else:
                dual_viol_sq += r * r
        elif r < 0:
            if ub_fin:
                d += _frac(lp.ub[j]) * r
            else:
                dual_viol_sq += r * r
    report._add(
        "dual_residual_sq",
        dual_viol_sq,
        2 * epsf * epsf * (1 + c_sq),
        detail="unabsorbed reduced costs vs 2·eps²·(1+‖ĉ‖²)",
    )

    # Dual cone: inequality-row duals are projected ≥ 0 every iteration
    # (and averages of nonnegatives stay nonnegative), so eps is ample.
    worst_cone = Fraction(0)
    for idx in range(num_eq, len(rows)):
        worst_cone = max(worst_cone, -yf[idx])
    report._add("dual_cone", worst_cone, epsf, detail="inequality duals ≥ 0")

    # Relative duality gap, with p and d computed exactly above.
    report._add(
        "gap",
        abs(p - d),
        epsf * (1 + abs(p) + abs(d)),
        detail=f"primal_min {float(p):.12g}, dual_min {float(d):.12g}",
    )

    # The reported (maximization) objective must match −p exactly-ish.
    report._add(
        "objective",
        abs(_frac(result.objective) + p),
        _frac(OBJECTIVE_CONSISTENCY_RTOL) * (1 + abs(p)),
        detail=f"claimed {result.objective:.12g}, exact {float(-p):.12g}",
    )
    return report
