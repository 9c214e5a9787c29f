"""Exact solution certificates in dyadic-integer arithmetic.

Every finite float64 is a *dyadic rational* ``m · 2**e`` with integer
``m``, so a claimed solution can be audited *exactly*: constraint
activities, bound violations, integrality residuals, and objective
values computed here carry no rounding error whatsoever.  The float
solvers are allowed their documented tolerances — the certificate
compares the exactly computed violation against the exactly represented
tolerance — but they cannot hide a genuinely wrong answer behind
accumulated float noise, which is precisely how a silently mis-solving
kernel would present.

It is the audit a :class:`fractions.Fraction` implementation performs,
value for value: every quantity below is formed from floats by
``+ − × abs max <`` only, and the dyadic rationals are closed under
those, so nothing leaves the ring and no ``gcd`` or division is needed.
Each array is scaled once to Python integers on one shared exponent
(:func:`_dyadic`), a row is one integer dot product, comparisons align
exponents first, and only the *reported* floats are rounded — once,
correctly, at the end (``tests/check/_fraction_oracle.py`` keeps the
``Fraction`` audit as the oracle for that claim).  The integer form of
a matrix shared by near-duplicate audits may be kept by the caller
(``form=``, an opaque dict owned by whatever owns the matrix's
lifetime); it is used only after ``np.array_equal`` against a private
copy proves it is that matrix's, and rebuilt otherwise.

Checks are scaled relative to the data magnitude they test against
(``tol * (1 + |b_i|)`` for row ``i``), matching how the float stack
treats its own residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mul
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import DEFAULT_TOLERANCES
from repro.errors import CertificateViolation
from repro.lp.problem import LinearProgram, StandardFormLP
from repro.lp.result import LPResult, LPStatus
from repro.mip.problem import MIPProblem
from repro.mip.result import MIPResult, MIPStatus

#: Slack allowed between a claimed objective and the exact cᵀx, relative
#: to the objective magnitude (float dot products of ~1e3 terms).
OBJECTIVE_CONSISTENCY_RTOL = 1e-9

#: ``(ints, e)`` with ``array == ints · 2**e`` exactly, nested like the array.
IntForm = Tuple[list, int]
#: Caller-held integer forms, ``role → (private copy, ints, e)``.
FormCache = Dict[str, tuple]


class _Dyadic:
    """The exact number ``m · 2**e``; plain ints mix in as ``e = 0``."""

    __slots__ = ("m", "e")

    def __init__(self, m: int, e: int = 0):
        self.m, self.e = m, e

    def _aligned(self, other) -> Tuple[int, int, int]:
        """Both mantissas on the smaller of the two exponents."""
        om, oe = (other, 0) if type(other) is int else (other.m, other.e)
        e = self.e if self.e < oe else oe
        return self.m << (self.e - e), om << (oe - e), e

    def __add__(self, other) -> "_Dyadic":
        a, b, e = self._aligned(other)
        return _Dyadic(a + b, e)

    def __sub__(self, other) -> "_Dyadic":
        a, b, e = self._aligned(other)
        return _Dyadic(a - b, e)

    def __mul__(self, other) -> "_Dyadic":
        if type(other) is int:
            return _Dyadic(self.m * other, self.e)
        return _Dyadic(self.m * other.m, self.e + other.e)

    def __abs__(self) -> "_Dyadic":
        return _Dyadic(abs(self.m), self.e)

    def __le__(self, other) -> bool:
        a, b, _ = self._aligned(other)
        return a <= b

    def __float__(self) -> float:
        """Correctly rounded (one int/int division); saturates to ±inf."""
        m, e = self.m, self.e
        try:
            return float(m << e) if e >= 0 else m / (1 << -e)
        except OverflowError:
            return math.inf if self.m > 0 else -math.inf


def _scalar(value: float) -> _Dyadic:
    """Exact dyadic of one finite float."""
    num, den = float(value).as_integer_ratio()  # den is a power of two
    return _Dyadic(num, 1 - den.bit_length())


def _tolerance(default: float, given: Optional[float]) -> _Dyadic:
    """An explicit tolerance as given, else ten times the solver default."""
    return _scalar(default) * 10 if given is None else _scalar(given)


def _dyadic(arr) -> IntForm:
    """Scale a finite float array to exact integers on one exponent ``e ≤ 0``."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.size == 0:
        return arr.tolist(), 0
    if not np.isfinite(arr).all():
        raise ValueError("the exact audit needs finite data")
    mant, exp = np.frexp(arr)  # arr == mant · 2**exp with 0.5 ≤ |mant| < 1, or 0
    low = min(int(exp.min()), 53)
    ints = np.ldexp(mant, 53).astype(np.int64)  # the exact 53-bit mantissas
    shift = np.where(ints != 0, exp - low, 0)
    if shift.max() > 10:  # 53 + shift bits no longer fit int64
        ints, shift = ints.astype(object), shift.astype(object)
    return (ints << shift).tolist(), low - 53


def _int_rows(form: FormCache, role: str, a: np.ndarray) -> IntForm:
    """Integer rows of ``a`` — from ``form`` only when it provably is ``a``'s.

    The held copy is compared *by value*, so a form built for another
    matrix, or for this one before it was mutated in place, is rebuilt
    rather than trusted: a stale form cannot certify a different matrix.
    """
    held = form.get(role)
    if held is None or not np.array_equal(held[0], a):
        held = form[role] = (a.copy(), *_dyadic(a))
    return held[1], held[2]


def _dot(u: IntForm, v: IntForm) -> _Dyadic:
    """Exact dot product of two integer-form vectors."""
    return _Dyadic(sum(map(mul, u[0], v[0])), u[1] + v[1])


def _residuals(
    form: FormCache, role: str, a: np.ndarray, b: np.ndarray, x: IntForm
) -> Tuple[List[int], List[int], int]:
    """Exact ``Ax − b`` per row, and ``b``, as integers on one exponent."""
    rows, ea = _int_rows(form, role, a)
    (bm, eb), (xm, ex) = _dyadic(b), x
    if a.shape != (len(bm), len(xm)):
        raise ValueError(f"{role}: {a.shape} matrix, {len(xm)} vector, {len(bm)} rhs")
    e = min(ea + ex, eb)
    shift = ea + ex - e
    bm = [v << (eb - e) for v in bm]
    ax = [sum(map(mul, row, xm)) << shift for row in rows]
    return [r - bi for r, bi in zip(ax, bm)], bm, e


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

    def _add(self, name, violation: _Dyadic, tolerance: _Dyadic, detail: str) -> None:
        """Record one exact check; the verdict is taken before any rounding."""
        ok = violation <= tolerance
        self._flag(name, ok, float(violation), float(tolerance), detail)

    def _flag(
        self, name: str, ok: bool, violation: float, tolerance: float, detail: str
    ) -> "CertificateReport":
        self.checks.append(CertificateCheck(name, ok, violation, tolerance, detail))
        return self

    def _admit(self, n: int, x: np.ndarray, **claimed) -> bool:
        """Fail ``shape`` unless ``x`` is ``(n,)``, ``finite`` on a NaN/inf claim."""
        if x.shape != (n,):
            detail = f"solution has shape {x.shape}, expected ({n},)"
            self._flag("shape", False, float(x.size), float(n), detail)
            return False
        for name, value in dict(x=x, **claimed).items():
            if value is None:
                continue
            flat = np.asarray(value, dtype=np.float64).ravel()
            if not np.isfinite(flat).all():
                at = int(np.flatnonzero(~np.isfinite(flat))[0])
                where = name if np.ndim(value) == 0 else f"{name}[{at}]"
                self._flag("finite", False, math.inf, 0.0, f"{where} is {flat[at]}")
                return False
        return True


def _add_worst(
    report: CertificateReport, name: str, where: str, at: List[int],
    violations: List[int], bounds: List[int], e: int, tol: _Dyadic,
) -> None:
    """Record the entry with the worst violation against ``tol·(1+|bound|)``."""
    one = 1 << -e
    worst, worst_tol, worst_at = 0, tol.m * one, -1
    for i, violation, bound in zip(at, violations, bounds):
        allowed = tol.m * (one + (bound if bound > 0 else -bound))
        # Rank by tolerance-normalized violation so a tight entry is not
        # masked by a slack one with a bigger absolute residual.
        if worst_at < 0 or violation * worst_tol > worst * allowed:
            worst, worst_tol, worst_at = violation, allowed, i
    allowed = _Dyadic(worst_tol, tol.e + e)
    report._add(name, _Dyadic(worst, e), allowed, f"worst {where} {worst_at}")


def _check_rows(
    report: CertificateReport, name: str, form: FormCache, a: Optional[np.ndarray],
    b: Optional[np.ndarray], x: IntForm, tol: _Dyadic, equality: bool,
) -> None:
    """Worst exact violation of ``Ax ≤ b`` (or ``= b``) over all rows."""
    if a is None:
        return
    resid, bm, e = _residuals(form, name, a, b, x)
    violations = [r if r > 0 else (-r if equality else 0) for r in resid]
    _add_worst(report, name, "row", range(len(bm)), violations, bm, e, tol)


def _check_bounds(
    report: CertificateReport, lb: np.ndarray, ub: np.ndarray, x: np.ndarray,
    tol: _Dyadic,
) -> None:
    """Worst exact violation of ``lb ≤ x ≤ ub`` over the finite bounds."""
    box = np.column_stack([lb, -ub]).ravel()  # lb₀, −ub₀, lb₁, −ub₁, …
    at = np.flatnonzero(np.isfinite(box))
    (bm, xm), e = _dyadic([box[at], np.column_stack([x, -x]).ravel()[at]])
    violations = [b - v if b > v else 0 for b, v in zip(bm, xm)]  # lb−x, x−ub
    _add_worst(report, "bounds", "var", (at >> 1).tolist(), violations, bm, e, tol)


def _check_objective(report: CertificateReport, claimed: float, exact: _Dyadic) -> None:
    """The claimed objective against the exact one."""
    report._add(
        "objective",
        abs(_scalar(claimed) - exact),
        _scalar(OBJECTIVE_CONSISTENCY_RTOL) * (abs(exact) + 1),
        f"claimed {claimed:.12g}, exact {float(exact):.12g}",
    )


def certify_mip_solution(
    problem: MIPProblem,
    x: np.ndarray,
    objective: Optional[float] = None,
    best_bound: Optional[float] = None,
    *,
    feasibility_tol: Optional[float] = None,
    integrality_tol: Optional[float] = None,
    form: Optional[FormCache] = None,
) -> CertificateReport:
    """Exactly audit a claimed MIP solution.

    Checks, all in exact dyadic-integer arithmetic: ≤-row and =-row
    feasibility, bound-box feasibility, integrality of the integer
    variables, consistency of the claimed ``objective`` with the exact
    ``cᵀx``, and (when given) that the claimed dual ``best_bound`` does
    not cut off the exact objective.  A NaN/inf ``x`` entry or
    ``objective``, or a NaN bound, fails a ``finite`` check naming it
    (an infinite bound claims nothing and is skipped).

    ``feasibility_tol`` / ``integrality_tol`` override the vertex-solver
    defaults (``10 ×`` the :data:`~repro.config.DEFAULT_TOLERANCES`
    ``feasibility`` / ``integrality``) with
    an explicit per-check tolerance, used **as given** (still scaled by
    the data magnitude, ``tol·(1+|bᵢ|)`` per row).  Pass the declared
    accuracy of an inexact solver here — e.g. a first-order engine's eps
    — instead of pretending its solutions are exact vertices.

    ``form``: caller-owned dict keeping the integer form of ``a_ub`` /
    ``a_eq`` between audits of one problem (verified by value on use).
    """
    report = CertificateReport(problem_name=problem.name)
    tol = DEFAULT_TOLERANCES
    form = {} if form is None else form
    x = np.asarray(x, dtype=np.float64)
    if best_bound is not None and math.isinf(best_bound):
        best_bound = None
    if not report._admit(problem.n, x, objective=objective, best_bound=best_bound):
        return report
    xv = _dyadic(x)
    feas = _tolerance(tol.feasibility, feasibility_tol)
    _check_rows(report, "rows_ub", form, problem.a_ub, problem.b_ub, xv, feas, False)
    _check_rows(report, "rows_eq", form, problem.a_eq, problem.b_eq, xv, feas, True)
    _check_bounds(report, problem.lb, problem.ub, x, feas)

    # Integrality: exact distance to the nearest integer, which for
    # m·2**−k is the distance of m's low k bits to 0 or 2**k.
    integer = np.flatnonzero(problem.integer).tolist()
    unit = 1 << -xv[1]
    low = [xv[0][j] & (unit - 1) for j in integer]
    dist = [r if 2 * r <= unit else unit - r for r in low]
    worst = max(dist, default=0)
    report._add(
        "integrality",
        _Dyadic(worst, xv[1]),
        _tolerance(tol.integrality, integrality_tol),
        f"worst var {integer[dist.index(worst)] if worst else -1}",
    )

    exact_obj = _dot(_dyadic(problem.c), xv)
    if objective is not None:
        _check_objective(report, objective, exact_obj)
    if best_bound is not None:
        # The dual bound must sit at or above the exact primal value
        # (maximization), up to the solver's own declared gap.
        short = exact_obj - _scalar(best_bound)
        report._add(
            "dual_bound",
            short if short.m > 0 else _Dyadic(0),
            _scalar(tol.mip_gap_abs) + _scalar(tol.mip_gap) * abs(exact_obj),
            f"bound {best_bound:.12g}, exact objective {float(exact_obj):.12g}",
        )
    return report


def certify_mip_result(problem: MIPProblem, result: MIPResult) -> CertificateReport:
    """Certify a :class:`MIPResult` (only terminal-with-solution states).

    ``OPTIMAL``/``NODE_LIMIT`` results with an incumbent get the full
    solution audit; an ``OPTIMAL`` result *without* an incumbent is
    itself a violation.  ``INFEASIBLE``/``UNBOUNDED`` claims need dual
    rays to certify and are recorded as skipped (vacuously ok).
    """
    if result.x is not None:
        return certify_mip_solution(problem, result.x, result.objective, result.best_bound)
    report = CertificateReport(problem_name=problem.name)
    if result.status is MIPStatus.OPTIMAL:
        detail = "OPTIMAL claimed without an incumbent solution"
        return report._flag("status", False, 1.0, 0.0, detail)
    detail = f"{result.status.value}: no solution to audit"
    return report._flag("status", True, 0.0, 0.0, detail)


def _lp_status(report: CertificateReport, result, *points) -> bool:
    """Record the ``status`` check when there is no KKT point to audit."""
    if result.status is not LPStatus.OPTIMAL:
        detail = f"{result.status.value}: no solution to audit"
        report._flag("status", True, 0.0, 0.0, detail)
    elif any(p is None for p in points):
        what = "primal solution" if len(points) == 1 else "primal/dual pair"
        report._flag("status", False, 1.0, 0.0, f"OPTIMAL claimed without a {what}")
    return bool(report.checks)


def certify_lp_result(
    lp: LinearProgram,
    result: LPResult,
    *,
    feasibility_tol: Optional[float] = None,
    optimality_tol: Optional[float] = None,
    form: Optional[FormCache] = None,
    standard_form: Optional[StandardFormLP] = None,
) -> CertificateReport:
    """Certify an LP solve: primal feasibility plus a duality certificate.

    When the result carries standard-form duals and primal iterates, the
    full optimality certificate is audited exactly on ``0 ≤ x̂ ≤ upper``:
    dual feasibility (``d = ĉ − Âᵀy ≤ 0`` where ``upper`` is infinite; a
    finite ``upper_j`` absorbs a positive ``d_j``) and strong duality
    (``ĉᵀx̂ = b̂ᵀy + Σ upper_j·max(d_j, 0)``).  Claimed ``duals`` /
    ``x_standard`` of any other shape than the standard form's fail a
    ``shape`` check.  A NaN/inf in ``x``, ``duals``, ``x_standard`` or
    ``objective`` fails a ``finite`` check naming it.

    ``feasibility_tol`` / ``optimality_tol`` override the vertex-solver
    defaults with an explicit tolerance, used as given — the hook for
    auditing *inexact* solvers whose declared accuracy is wider than a
    pivoted vertex (a first-order engine's eps, an IPM's barrier gap).
    For PDHG results prefer :func:`certify_first_order_lp`, which audits
    the solver's actual relative-KKT contract.

    ``form`` keeps the integer form of ``a_ub`` / ``a_eq`` / ``Â`` between
    audits of one structure (verified by value on use); ``standard_form``
    is ``lp.to_standard_form()`` when the caller has already built it.
    """
    report = CertificateReport(problem_name=getattr(lp, "name", "lp"))
    tol = DEFAULT_TOLERANCES
    form = {} if form is None else form
    if _lp_status(report, result, result.x):
        return report
    x = np.asarray(result.x, dtype=np.float64)
    claimed = {"duals": result.duals, "x_standard": result.x_standard}
    if not report._admit(lp.n, x, objective=result.objective, **claimed):
        return report
    xv = _dyadic(x)
    feas = _tolerance(tol.feasibility, feasibility_tol)
    _check_rows(report, "rows_ub", form, lp.a_ub, lp.b_ub, xv, feas, False)
    _check_rows(report, "rows_eq", form, lp.a_eq, lp.b_eq, xv, feas, True)
    _check_bounds(report, lp.lb, lp.ub, x, feas)
    _check_objective(report, result.objective, _dot(_dyadic(lp.c), xv))

    if result.duals is None or result.x_standard is None:
        return report
    sf = lp.to_standard_form() if standard_form is None else standard_form
    for name, size in (("duals", sf.m), ("x_standard", sf.n)):
        shape = claimed[name].shape
        if shape != (size,):
            detail = f"{name} has shape {shape}, expected ({size},)"
            return report._flag("shape", False, float(np.prod(shape)), float(size), detail)
    yv = _dyadic(result.duals)
    opt = _tolerance(tol.optimality, optimality_tol)
    # Dual feasibility: reduced costs d = ĉ − Âᵀy ≤ 0, i.e. no negative
    # residual of Âᵀy − ĉ, on every column whose upper is infinite; a
    # finite upper_j absorbs a positive d_j.
    slack, cm, e = _residuals(form, "standard_t", sf.a.T, sf.c, yv)
    boxed = np.isfinite(sf.upper).nonzero()[0].tolist()
    free = slack
    if boxed:
        free = slack.copy()
        for j in boxed:
            free[j] = 0
    low = min(free, default=0)
    detail = f"worst column {free.index(low) if low < 0 else -1}"
    report._add("dual_feasibility", _Dyadic(max(-low, 0), e), opt, detail)
    # Strong duality: ĉᵀx̂ == b̂ᵀy + Σ upper_j·max(d_j, 0), the integer
    # form of ``upper`` built over its finite entries only.
    primal = _dot((cm, e), _dyadic(result.x_standard))
    dual = _dot(_dyadic(sf.b), yv)
    if boxed:
        um, eu = _dyadic(sf.upper[boxed])
        absorbed = sum(u * -slack[j] for u, j in zip(um, boxed) if slack[j] < 0)
        dual = dual + _Dyadic(absorbed, eu + e)
    report._add(
        "strong_duality",
        abs(primal - dual),
        opt * 10 * (abs(primal) + 1),
        f"primal {float(primal):.12g}, dual {float(dual):.12g}",
    )
    return report


def certify_first_order_lp(
    lp: LinearProgram, result, eps: float = 1e-8
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
    ``(1+‖q‖)² ≤ 2·(1+‖q‖²)`` — keeping every comparison exact.  A point
    the solver legitimately accepted always passes; a fabricated
    "optimal" point whose residuals exceed ``√2·eps`` at the natural
    scale cannot.

    Non-``OPTIMAL`` statuses carry no KKT point and are recorded as
    vacuously ok, mirroring :func:`certify_lp_result` (as does ``finite``).
    """
    report = CertificateReport(problem_name=getattr(lp, "name", "lp"))
    if _lp_status(report, result, result.x, result.y):
        return report
    x = np.asarray(result.x, dtype=np.float64)
    y = np.asarray(result.y, dtype=np.float64)
    if not report._admit(lp.n, x, y=y, objective=result.objective):
        return report
    xv, yv, epsf = _dyadic(x), _dyadic(y), _scalar(eps)

    # Box feasibility.  The solver clips exactly in scaled space; the
    # unscaling multiply can leave at most rounding-level spill, well
    # inside the eps·(1+|bound|) budget.
    _check_bounds(report, lp.lb, lp.ub, x, epsf)

    # Saddle rows [A_eq; −A_ub] with rhs q = [b_eq; −b_ub].
    num_eq = lp.num_eq_rows
    k, q = np.zeros((0, lp.n)), np.zeros(0)
    if lp.a_eq is not None:
        k, q = lp.a_eq, lp.b_eq
    if lp.a_ub is not None:
        k, q = np.vstack([k, -lp.a_ub]), np.concatenate([q, -lp.b_ub])
    if len(y) != len(q):
        detail = f"dual vector has {len(y)} rows, saddle has {len(q)}"
        return report._flag("shape", False, float(len(y)), float(len(q)), detail)

    # Primal residual (squared); rows Kx ≥ q violate only by their shortfall.
    resid, qm, e = _residuals({}, "saddle", k, q, xv)
    resid[num_eq:] = [r if r < 0 else 0 for r in resid[num_eq:]]
    two_eps_sq = epsf * epsf * 2
    report._add(
        "primal_residual_sq",
        _Dyadic(sum(map(mul, resid, resid)), 2 * e),
        two_eps_sq * (_Dyadic(sum(map(mul, qm, qm)), 2 * e) + 1),
        "‖[Kx−q]₋‖² vs 2·eps²·(1+‖q‖²)",
    )

    # Exact reduced costs r = ĉ − Kᵀy: minus the residuals of Kᵀy = ĉ.
    # A positive one must be absorbed by a finite lower bound, a negative
    # one by a finite upper bound; what is absorbed joins the dual
    # objective d = qᵀy + Σ bound·r.
    slack, cm, er = _residuals({}, "saddle_t", k.T, -lp.c, yv)
    sides = np.stack([lp.ub, lp.lb])  # row [r > 0]: the bound that absorbs r
    finite = np.isfinite(sides)
    box, eb = _dyadic(np.where(finite, sides, 0.0))
    finite = finite.tolist()
    absorbed = unabsorbed = 0
    for j, s in enumerate(slack):
        if s:
            side = s < 0
            if finite[side][j]:
                absorbed -= box[side][j] * s
            else:
                unabsorbed += s * s
    report._add(
        "dual_residual_sq",
        _Dyadic(unabsorbed, 2 * er),
        two_eps_sq * (_Dyadic(sum(map(mul, cm, cm)), 2 * er) + 1),
        "unabsorbed reduced costs vs 2·eps²·(1+‖ĉ‖²)",
    )

    # Dual cone: inequality-row duals are projected ≥ 0 every iteration
    # (and averages of nonnegatives stay nonnegative), so eps is ample.
    worst_cone = max(0, -min(yv[0][num_eq:], default=0))
    report._add("dual_cone", _Dyadic(worst_cone, yv[1]), epsf, "inequality duals ≥ 0")

    # Relative duality gap, with p and d exact.
    p = _dot((cm, er), xv)
    d = _dot((qm, e), yv) + _Dyadic(absorbed, eb + er)
    report._add(
        "gap",
        abs(p - d),
        epsf * (abs(p) + abs(d) + 1),
        f"primal_min {float(p):.12g}, dual_min {float(d):.12g}",
    )

    # The reported (maximization) objective must match −p exactly-ish.
    _check_objective(report, result.objective, p * -1)
    return report
