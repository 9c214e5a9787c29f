"""Gomory mixed-integer (GMI) cuts from the optimal simplex tableau.

For a basic integer variable with fractional value x̄_B[r] = b̄, the
tableau row is ``x_B[r] + Σ_N ā_j x_j = b̄``.  With f₀ = frac(b̄) and
f_j = frac(ā_j), the GMI inequality

    Σ_{j∈N, int}  min(f_j/f₀, (1−f_j)/(1−f₀)) x_j
  + Σ_{j∈N, cont} (ā_j/f₀ if ā_j>0 else −ā_j/(1−f₀)) x_j  ≥ 1

is valid for every mixed-integer point and cuts off the current LP
optimum by exactly 1 − 0 = 1 unit of the normalized row.

A nonbasic column at its upper bound enters the row complemented,
``x̄_j = upper_j − x_j ≥ 0`` with coefficient ``−ā_j``, and is treated as
continuous — the cut a bound row's slack would give, with that row
substituted out.

Computing the tableau row needs one btran per cut (ρ = B⁻ᵀ e_r, then
ā = Aᵀρ) — the same resident-basis linear algebra as the simplex itself,
which is why the paper's §5.2 only worries about *cut generation*
happening on the CPU, not about the tableau access.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.config import DEFAULT_TOLERANCES
from repro.errors import SingularMatrixError
from repro.la.updates import ProductFormInverse
from repro.lp.problem import StandardFormLP
from repro.mip.cuts.pool import Cut
from repro.mip.problem import MIPProblem


#: GMI cuts one call may return (most fractional rows first).
MAX_CUTS = 8
#: Basic integer values closer than this to an integer yield no cut.
MIN_FRACTIONALITY = 1e-4


def standard_integer_mask(problem: MIPProblem, sf: StandardFormLP) -> np.ndarray:
    """Which standard-form columns are integer-valued.

    Structural columns of integer variables are integer because the
    bound shift (the variable's lb) is integral by construction
    (:class:`MIPProblem` rounds integer bounds).  Slacks are treated as
    continuous — conservative and always valid.
    """
    mask = np.zeros(sf.n, dtype=bool)
    for i in np.nonzero(problem.integer)[0]:
        if sf.neg_col[i] < 0:  # split (free) vars are never integer-safe
            mask[sf.pos_col[i]] = True
    return mask


def gomory_mixed_integer_cuts(
    problem: MIPProblem,
    sf: StandardFormLP,
    basis: np.ndarray,
    at_upper: np.ndarray,
    x_standard: np.ndarray,
) -> List[Cut]:
    """Generate GMI cuts for the fractional basic integer variables.

    ``at_upper`` marks the nonbasic columns at their upper bound.
    Returns cuts as ``row · x ≤ rhs`` over standard-form columns (the
    ≥-form above is negated, and complemented columns substituted back,
    for uniform appending).
    """
    tol = DEFAULT_TOLERANCES
    int_mask = standard_integer_mask(problem, sf)
    m = sf.m

    basis = np.asarray(basis, dtype=np.int64)
    try:
        pfi = ProductFormInverse(sf.a[:, basis])
    except SingularMatrixError:
        return []

    nonbasic = np.ones(sf.n, dtype=bool)
    nonbasic[basis] = False

    # Rank candidate rows by fractionality of their basic integer value.
    candidates = []
    for r in range(m):
        col = basis[r]
        if not int_mask[col]:
            continue
        value = x_standard[col]
        f0 = value - np.floor(value)
        if MIN_FRACTIONALITY < f0 < 1.0 - MIN_FRACTIONALITY:
            candidates.append((abs(f0 - 0.5), r, f0))
    candidates.sort()

    cuts: List[Cut] = []
    for _, r, f0 in candidates[:MAX_CUTS]:
        e_r = np.zeros(m)
        e_r[r] = 1.0
        rho = pfi.btran(e_r)
        abar = sf.a.T @ rho  # tableau row over all columns

        coeff = np.zeros(sf.n)
        nb_idx = np.nonzero(nonbasic)[0]
        for j in nb_idx:
            aj = -abar[j] if at_upper[j] else abar[j]
            if abs(aj) <= tol.drop:
                continue
            if int_mask[j] and not at_upper[j]:
                fj = aj - np.floor(aj)
                if fj <= f0:
                    coeff[j] = fj / f0
                else:
                    coeff[j] = (1.0 - fj) / (1.0 - f0)
            else:
                if aj > 0:
                    coeff[j] = aj / f0
                else:
                    coeff[j] = -aj / (1.0 - f0)
        if not np.any(np.abs(coeff) > tol.drop):
            continue
        # GMI: coeff · x ≥ 1 over x_j (at 0) and x̄_j = upper_j − x_j
        # (at upper)  →  append as  row · x ≤ rhs.
        row = np.where(at_upper, coeff, -coeff)
        rhs = float(coeff[at_upper] @ sf.upper[at_upper]) - 1.0
        violation = float(row @ x_standard) - rhs  # >0 when x* violates ≤
        if violation <= 1e-7:
            continue
        cuts.append(Cut(row=row, rhs=rhs, violation=violation, source="gmi"))
    return cuts
