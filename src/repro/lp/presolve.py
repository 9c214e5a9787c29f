"""LP presolve: cheap reductions applied before the simplex.

Conventional solver front-end (SCIP-style, heavily simplified): fixed
variables are substituted out, empty rows are checked and dropped, and
singleton inequality rows become bound tightenings.  Presolve runs to a
fixpoint and reports trivial infeasibility without invoking the simplex.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.lp.problem import LinearProgram


class PresolveStatus(enum.Enum):
    """Outcome of presolve."""

    REDUCED = "reduced"        # a (possibly smaller) LP remains
    INFEASIBLE = "infeasible"  # proven infeasible without solving
    SOLVED = "solved"          # all variables fixed; solution known


@dataclass
class PresolveResult:
    """Presolve outcome plus the postsolve mapping."""

    status: PresolveStatus
    #: The reduced problem (None unless status is REDUCED).
    lp: Optional[LinearProgram]
    #: Maps a reduced-space solution back to the original space.
    postsolve: Callable[[np.ndarray], np.ndarray]
    #: Objective contribution of eliminated variables.
    fixed_objective: float
    #: Original indices of the variables kept in the reduced problem.
    kept: np.ndarray


#: Reduction passes before presolve stops looking for a fixpoint.
MAX_PASSES = 10


def presolve(lp: LinearProgram) -> PresolveResult:
    """Apply fixpoint presolve reductions to ``lp``."""
    from repro import obs

    with obs.span("lp.presolve", category="lp", n=lp.n) as sp:
        result = _presolve(lp)
        sp.set(status=result.status.value)
        return result


def _presolve(lp: LinearProgram) -> PresolveResult:
    n = lp.n
    lb = lp.lb.copy()
    ub = lp.ub.copy()
    a_ub = None if lp.a_ub is None else lp.a_ub.copy()
    b_ub = None if lp.b_ub is None else lp.b_ub.copy()
    a_eq = None if lp.a_eq is None else lp.a_eq.copy()
    b_eq = None if lp.b_eq is None else lp.b_eq.copy()
    tol = 1e-9

    keep_rows_ub = (
        np.ones(0, dtype=bool) if a_ub is None else np.ones(a_ub.shape[0], dtype=bool)
    )

    for _ in range(MAX_PASSES):
        changed = False

        if np.any(lb > ub + 1e-9):
            return _infeasible(n)

        # Singleton inequality rows -> bound tightening.
        if a_ub is not None:
            for i in range(a_ub.shape[0]):
                if not keep_rows_ub[i]:
                    continue
                nz = np.nonzero(np.abs(a_ub[i]) > tol)[0]
                if nz.size == 0:
                    if b_ub[i] < -1e-9:
                        return _infeasible(n)
                    keep_rows_ub[i] = False
                    changed = True
                elif nz.size == 1:
                    j = int(nz[0])
                    coeff = a_ub[i, j]
                    bound = b_ub[i] / coeff
                    if coeff > 0 and bound < ub[j] - 1e-12:
                        ub[j] = bound
                        changed = True
                    elif coeff < 0 and bound > lb[j] + 1e-12:
                        lb[j] = bound
                        changed = True
                    keep_rows_ub[i] = False

        # Empty equality rows.
        if a_eq is not None:
            for i in range(a_eq.shape[0]):
                nz = np.nonzero(np.abs(a_eq[i]) > tol)[0]
                if nz.size == 0 and abs(b_eq[i]) > 1e-9:
                    return _infeasible(n)

        if not changed:
            break

    if np.any(lb > ub + 1e-9):
        return _infeasible(n)

    # Substitute out fixed variables.
    fixed = np.isfinite(lb) & np.isfinite(ub) & (ub - lb <= 1e-12)
    kept = np.nonzero(~fixed)[0]
    fixed_vals = np.where(fixed, np.where(np.isfinite(lb), lb, 0.0), 0.0)
    fixed_objective = float(lp.c[fixed] @ fixed_vals[fixed])

    def make_postsolve(kept_idx: np.ndarray, fixed_values: np.ndarray):
        def postsolve(x_reduced: np.ndarray) -> np.ndarray:
            x = fixed_values.copy()
            x[kept_idx] = x_reduced
            return x

        return postsolve

    postsolve = make_postsolve(kept, fixed_vals)

    if kept.size == 0:
        # Everything fixed; feasibility of remaining rows must be checked.
        x = fixed_vals
        if a_ub is not None and np.any(a_ub @ x > b_ub + 1e-7):
            return _infeasible(n)
        if a_eq is not None and np.any(np.abs(a_eq @ x - b_eq) > 1e-7):
            return _infeasible(n)
        return PresolveResult(
            status=PresolveStatus.SOLVED,
            lp=None,
            postsolve=postsolve,
            fixed_objective=fixed_objective,
            kept=kept,
        )

    new_a_ub = new_b_ub = None
    if a_ub is not None and keep_rows_ub.any():
        rows = np.nonzero(keep_rows_ub)[0]
        new_a_ub = a_ub[np.ix_(rows, kept)]
        new_b_ub = b_ub[rows] - a_ub[rows][:, fixed] @ fixed_vals[fixed]
    new_a_eq = new_b_eq = None
    if a_eq is not None and a_eq.shape[0]:
        new_a_eq = a_eq[:, kept]
        new_b_eq = b_eq - a_eq[:, fixed] @ fixed_vals[fixed]

    reduced = LinearProgram(
        c=lp.c[kept],
        a_ub=new_a_ub,
        b_ub=new_b_ub,
        a_eq=new_a_eq,
        b_eq=new_b_eq,
        lb=lb[kept],
        ub=ub[kept],
    )
    return PresolveResult(
        status=PresolveStatus.REDUCED,
        lp=reduced,
        postsolve=postsolve,
        fixed_objective=fixed_objective,
        kept=kept,
    )


def _infeasible(n: int) -> PresolveResult:
    return PresolveResult(
        status=PresolveStatus.INFEASIBLE,
        lp=None,
        postsolve=lambda x: np.zeros(n),
        fixed_objective=0.0,
        kept=np.zeros(0, dtype=np.int64),
    )
