"""Mixed-integer rounding (MIR) cuts from single constraint rows.

The MIR inequality for the mixed set
``{x ≥ 0 : Σ_I a_j x_j + Σ_C g_j x_j ≤ b}`` (I integer, C continuous):
drop continuous terms with g_j > 0 (weakening), fold the negative ones
into a slack ``t = −Σ_{g_j<0} g_j x_j ≥ 0``, and apply basic MIR to
``Σ_I a_j x_j − t ≤ b``:

    Σ_I ( ⌊a_j⌋ + max(f_j − f₀, 0)/(1 − f₀) ) x_j
      + Σ_{g_j<0} g_j/(1 − f₀) x_j  ≤  ⌊b⌋,

with f_j = frac(a_j), f₀ = frac(b) > 0.  Each row is also tried under a
few divisors δ (row/δ before rounding), the cheap end of the
Marchand–Wolsey c-MIR recipe; the most violated version is kept.

Rows are pre-shifted by the finite lower bounds of ``sf`` — the node's
box, not the root's — so x ≥ 0 holds in the space of its columns; rows
touching free continuous variables are skipped (no sign certificate).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.lp.problem import StandardFormLP
from repro.mip.cuts.pool import Cut
from repro.mip.problem import MIPProblem


#: MIR cuts one call may return.
MAX_CUTS = 8
#: Row divisors δ tried before rounding (row/δ, rhs/δ).
DIVISORS = (1.0, 2.0, 3.0)


def _mir_from_row(
    a_row: np.ndarray,
    b_val: float,
    integer_mask: np.ndarray,
    x: np.ndarray,
) -> tuple:
    """MIR coefficients in (shifted) original space, or (None, 0)."""
    f0 = b_val - np.floor(b_val)
    if f0 < 1e-6 or f0 > 1.0 - 1e-6:
        return None, 0.0
    one_minus = 1.0 - f0
    coeff = np.zeros_like(a_row)
    for j in range(a_row.shape[0]):
        aj = a_row[j]
        if abs(aj) < 1e-12:
            continue
        if integer_mask[j]:
            fj = aj - np.floor(aj)
            coeff[j] = np.floor(aj) + max(fj - f0, 0.0) / one_minus
        elif aj < 0:
            coeff[j] = aj / one_minus
        # continuous with positive coefficient: dropped (coefficient 0)
    rhs = float(np.floor(b_val))
    violation = float(coeff @ x) - rhs
    return (coeff, rhs), violation


def mir_cuts(
    problem: MIPProblem,
    sf: StandardFormLP,
    x: np.ndarray,
) -> List[Cut]:
    """Violated single-row MIR cuts in standard-form space.

    ``x`` is the fractional LP solution in original variables; ``sf`` is
    the form of the box it solved (a node's lower bounds are its shift).
    """
    if problem.a_ub is None:
        return []
    shift = sf.shift  # the finite lower bound, 0 for a split free column
    free_cont = (sf.neg_col >= 0) & ~problem.integer
    x_shifted = x - shift

    cuts: List[Cut] = []
    for i in range(problem.a_ub.shape[0]):
        if len(cuts) >= MAX_CUTS:
            break
        row = problem.a_ub[i]
        support = np.abs(row) > 1e-12
        if not support.any() or np.any(support & free_cont):
            continue
        # Shift to x' = x - lb ≥ 0.
        b_shifted = problem.b_ub[i] - float(row @ shift)

        best = None
        best_violation = 1e-6
        for divisor in DIVISORS:
            candidate, violation = _mir_from_row(
                row / divisor, b_shifted / divisor, problem.integer, x_shifted
            )
            if candidate is not None and violation > best_violation:
                best, best_violation = candidate, violation
        if best is None:
            continue
        coeff, rhs = best

        # Map to standard-form columns: each is already the shifted
        # variable x'_j = x_j − sf.shift_j, so the rhs needs no correction.
        std_row = np.zeros(sf.n)
        for j in np.nonzero(np.abs(coeff) > 1e-12)[0]:
            std_row[sf.pos_col[j]] = coeff[j]
        cuts.append(
            Cut(row=std_row, rhs=rhs, violation=best_violation, source="mir")
        )
    return cuts
