"""Problem sanitizer: validate and repair LP/MIP inputs before solving.

Garbage in a coefficient matrix does not fail loudly — it makes the
simplex pivot on NaN, PDHG derive a NaN step size, or branch-and-bound
wander a tree of nonsense bounds.  The sanitizer runs first and turns
each pathology into an explicit :class:`SanitizeIssue` with one of
three severities:

- **fatal** — not repairable without inventing data (NaN/Inf anywhere
  in ``c``/``A``/``b``/bounds).  Rejected under ``REPAIR``/``REJECT``.
- **repair** — fixable by an *exactly optimum-preserving* rewrite:
  dropping all-zero or duplicate rows, collapsing eps-crossed bounds,
  and positive row rescaling when the cross-row dynamic range explodes.
- **warn** — suspicious but not safely rewritable (extreme *within*-row
  dynamic range); recorded and left alone.

Two structural pathologies *prove infeasibility* during sanitation (an
all-zero row with an unsatisfiable rhs; duplicate equality rows with
conflicting rhs).  These set :attr:`SanitizeReport.verdict` so callers
can return ``INFEASIBLE`` without ever invoking a solver.

Repair is idempotent — sanitizing a repaired problem finds nothing new
to fix — and every rewrite preserves the feasible set and optimum
exactly (row scaling by a positive scalar, removal of redundant rows).
Gross bound crossings are impossible here: ``LinearProgram`` refuses
them at construction, so only eps-level crossings (≤ 1e-12) reach us.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.config import DEFAULT_TOLERANCES
from repro.errors import SanitizeError
from repro.lp.problem import ARRAYS, LinearProgram
from repro.mip.problem import MIPProblem


class SanitizePolicy(enum.Enum):
    """What to do with the issues the sanitizer finds."""

    #: Fix repairable issues, reject fatal ones.
    REPAIR = "repair"
    #: Record everything, change nothing, never raise.
    WARN = "warn"
    #: Any issue at all rejects the instance.
    REJECT = "reject"


#: Coefficients below this count as structural zeros for row checks.
ZERO_TOL = DEFAULT_TOLERANCES.drop
#: Feasibility slack allowed on an all-zero row's rhs.
FEASIBILITY_TOL = DEFAULT_TOLERANCES.feasibility
#: Cross-row max/min row-magnitude ratio that triggers rescaling.
RANGE_LIMIT = 1e10


@dataclass
class SanitizeIssue:
    """One detected pathology."""

    code: str
    where: str
    severity: str  # "fatal" | "repair" | "warn"
    detail: str = ""

    def __str__(self) -> str:
        tail = f" ({self.detail})" if self.detail else ""
        return f"[{self.severity}] {self.code} at {self.where}{tail}"

    def to_dict(self) -> Dict:
        return {
            "code": self.code,
            "where": self.where,
            "severity": self.severity,
            "detail": self.detail,
        }


@dataclass
class SanitizeReport:
    """Outcome of one sanitation pass."""

    problem: Union[LinearProgram, MIPProblem]
    policy: SanitizePolicy
    issues: List[SanitizeIssue] = field(default_factory=list)
    #: Issue codes actually fixed (REPAIR policy only).
    repaired: List[str] = field(default_factory=list)
    #: "infeasible" when sanitation *proved* the instance infeasible.
    verdict: Optional[str] = None

    @property
    def clean(self) -> bool:
        """True when no issues were found at all."""
        return not self.issues

    @property
    def fatal(self) -> List[SanitizeIssue]:
        return [i for i in self.issues if i.severity == "fatal"]

    def to_dict(self) -> Dict:
        return {
            "policy": self.policy.value,
            "clean": self.clean,
            "verdict": self.verdict,
            "repaired": list(self.repaired),
            "issues": [i.to_dict() for i in self.issues],
        }


# ---------------------------------------------------------------------------
# Detection helpers (operate on plain arrays; never mutate inputs)
# ---------------------------------------------------------------------------


def _scan_nonfinite(
    issues: List[SanitizeIssue], name: str, arr: Optional[np.ndarray]
) -> bool:
    if arr is None:
        return False
    bad = ~np.isfinite(arr)
    if name in ("lb", "ub"):
        # Infinite bounds are legitimate (free/unbounded variables);
        # only NaN is garbage there.
        bad = np.isnan(arr)
    if bad.any():
        where = np.argwhere(bad)[0]
        issues.append(
            SanitizeIssue(
                code="nonfinite_coeff",
                where=f"{name}[{','.join(str(int(i)) for i in where)}]",
                severity="fatal",
                detail=f"{int(bad.sum())} non-finite entries",
            )
        )
        return True
    return False


def _row_block_issues(
    a: np.ndarray,
    b: np.ndarray,
    kind: str,  # "ub" | "eq"
    issues: List[SanitizeIssue],
) -> Tuple[np.ndarray, Optional[str]]:
    """Rows to keep (mask) + infeasibility verdict for one block."""
    m = a.shape[0]
    keep = np.ones(m, dtype=bool)
    verdict: Optional[str] = None
    row_mag = np.max(np.abs(a), axis=1) if a.size else np.zeros(m)

    # Empty (all-zero) rows: redundant when the rhs is satisfiable,
    # otherwise the row alone proves infeasibility.
    for i in np.nonzero(row_mag <= ZERO_TOL)[0]:
        if kind == "ub":
            satisfiable = b[i] >= -FEASIBILITY_TOL
        else:
            satisfiable = abs(b[i]) <= FEASIBILITY_TOL
        if satisfiable:
            issues.append(
                SanitizeIssue(
                    code="empty_row",
                    where=f"a_{kind}[{i}]",
                    severity="repair",
                    detail="all-zero row with satisfiable rhs; dropped",
                )
            )
            keep[i] = False
        else:
            issues.append(
                SanitizeIssue(
                    code="empty_row_infeasible",
                    where=f"a_{kind}[{i}]",
                    severity="warn",
                    detail=f"0 ≤/= {b[i]:.6g} cannot hold",
                )
            )
            verdict = "infeasible"

    # Duplicate rows (exact coefficient equality only — anything fuzzier
    # would not be exactly optimum-preserving).
    seen: Dict[bytes, int] = {}
    for i in range(m):
        if not keep[i]:
            continue
        key = a[i].tobytes()
        j = seen.get(key)
        if j is None:
            seen[key] = i
            continue
        if kind == "ub":
            # Keep the tighter rhs; the looser row is redundant.
            if b[i] < b[j]:
                keep[j] = False
                seen[key] = i
                dropped = j
            else:
                keep[i] = False
                dropped = i
            issues.append(
                SanitizeIssue(
                    code="duplicate_row",
                    where=f"a_ub[{dropped}]",
                    severity="repair",
                    detail=f"duplicate of a_ub[{i if dropped == j else j}]; "
                    "kept tighter rhs",
                )
            )
        else:
            if abs(b[i] - b[j]) <= FEASIBILITY_TOL:
                keep[i] = False
                issues.append(
                    SanitizeIssue(
                        code="duplicate_row",
                        where=f"a_eq[{i}]",
                        severity="repair",
                        detail=f"duplicate of a_eq[{j}]; dropped",
                    )
                )
            else:
                issues.append(
                    SanitizeIssue(
                        code="conflicting_rows",
                        where=f"a_eq[{i}]",
                        severity="warn",
                        detail=f"same coefficients as a_eq[{j}] but rhs "
                        f"{b[i]:.6g} ≠ {b[j]:.6g}",
                    )
                )
                verdict = "infeasible"
    return keep, verdict


def _range_issues(
    blocks: List[Tuple[str, np.ndarray]],
    issues: List[SanitizeIssue],
) -> bool:
    """Detect dynamic-range pathologies; True when rescaling is needed."""
    mags: List[float] = []
    for name, a in blocks:
        if a is None or a.size == 0:
            continue
        for i in range(a.shape[0]):
            row = np.abs(a[i])
            nz = row[row > ZERO_TOL]
            if nz.size == 0:
                continue
            mags.append(float(nz.max()))
            within = float(nz.max() / nz.min())
            if within > RANGE_LIMIT:
                issues.append(
                    SanitizeIssue(
                        code="dynamic_range_row",
                        where=f"{name}[{i}]",
                        severity="warn",
                        detail=f"within-row coefficient range {within:.3g}",
                    )
                )
    if not mags:
        return False
    cross = max(mags) / min(mags)
    if cross > RANGE_LIMIT:
        issues.append(
            SanitizeIssue(
                code="dynamic_range",
                where="rows",
                severity="repair",
                detail=f"cross-row magnitude range {cross:.3g}; "
                "rows rescaled to unit max",
            )
        )
        return True
    return False


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def _scan_once(
    arrays: Dict[str, Optional[np.ndarray]],
) -> Tuple[List[SanitizeIssue], bool, Optional[str], Optional[Dict]]:
    """One detect-and-repair pass over a record's arrays.

    Returns ``(issues, fatal, verdict, repaired)`` where ``repaired``
    holds the rewritten arrays, or is None when nothing repairable was
    found.
    """
    issues: List[SanitizeIssue] = []
    verdict: Optional[str] = None

    fatal = False
    for name in ARRAYS:
        fatal |= _scan_nonfinite(issues, name, arrays[name])
    if fatal:
        return issues, True, None, None

    # Eps-crossed bounds (construction rejects anything grosser).
    lb, ub = arrays["lb"], arrays["ub"]
    crossed = lb > ub
    for j in np.nonzero(crossed)[0]:
        issues.append(
            SanitizeIssue(
                code="crossed_bounds",
                where=f"x[{j}]",
                severity="repair",
                detail=f"lb {lb[j]:.17g} > ub {ub[j]:.17g}; "
                "interval reordered",
            )
        )
    keep = {}
    for kind in ("ub", "eq"):
        if arrays[f"a_{kind}"] is not None:
            keep[kind], v = _row_block_issues(
                arrays[f"a_{kind}"], arrays[f"b_{kind}"], kind, issues
            )
            verdict = verdict or v
    rescale = _range_issues([(n, arrays[n]) for n in ("a_ub", "a_eq")], issues)

    if not any(i.severity == "repair" for i in issues):
        return issues, False, verdict, None

    lb = lb.copy()
    ub = ub.copy()
    lo = np.minimum(lb[crossed], ub[crossed])
    hi = np.maximum(lb[crossed], ub[crossed])
    lb[crossed], ub[crossed] = lo, hi
    repaired = dict(arrays, lb=lb, ub=ub)
    for kind in keep:
        a, b = arrays[f"a_{kind}"][keep[kind]], arrays[f"b_{kind}"][keep[kind]]
        if a.shape[0] == 0:
            a = b = None
        elif rescale:
            # Positive row scaling: exactly feasible-set preserving.
            mag = np.max(np.abs(a), axis=1)
            scale = np.where(mag > ZERO_TOL, mag, 1.0)
            a = a / scale[:, None]
            b = b / scale
        repaired[f"a_{kind}"], repaired[f"b_{kind}"] = a, b
    return issues, False, verdict, repaired


def sanitize_problem(
    problem: Union[LinearProgram, MIPProblem],
    policy: SanitizePolicy = SanitizePolicy.REPAIR,
) -> SanitizeReport:
    """Scan (and under ``REPAIR``, rewrite) one LP or MIP.

    Never mutates ``problem``; the report's ``problem`` is either the
    input (no repairs / ``WARN``) or a repaired copy of the same kind,
    built once by ``dataclasses.replace`` (a MIP keeps its mask and
    name).  Under ``REPAIR`` the detect-and-fix pass iterates to a
    fixpoint — rescaling can expose new duplicate rows, for example — so
    sanitize(sanitize(p)) always equals sanitize(p).  Raises
    :class:`SanitizeError` per the policy table in the module docstring.
    """
    issues, fatal, verdict, repaired = _scan_once(problem.arrays())

    report = SanitizeReport(
        problem=problem, policy=policy, issues=issues, verdict=verdict
    )

    if policy is SanitizePolicy.REJECT and issues:
        raise SanitizeError(issues)
    if policy is SanitizePolicy.WARN:
        return report
    # REPAIR: fatal issues cannot be fixed without inventing data.
    if fatal:
        raise SanitizeError(report.fatal)
    # Iterate repair to a fixpoint (bounded: each pass strictly shrinks
    # rows, fixes bounds, or normalizes scales, so 1 + rows passes cap).
    arrays = None
    while repaired is not None:
        arrays = repaired
        more, _, v, repaired = _scan_once(arrays)
        report.verdict = report.verdict or v
        report.issues.extend(i for i in more if i.severity == "repair")
    if arrays is not None:
        report.problem = replace(problem, **arrays)
    report.repaired = sorted(
        {i.code for i in report.issues if i.severity == "repair"}
    )

    if report.repaired:
        from repro.guard import budget as _budget

        ctx = _budget.active()
        if ctx is not None:
            ctx.note("sanitize", repaired=report.repaired, issues=len(report.issues))
    return report
