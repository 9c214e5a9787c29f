"""A degenerate LP family, drawn from a seed (test-only; no data stored).

Integer entries in −3..3, a planted integer point ``x0`` in ``[0, 4]``
and ``b = A x0 + {0, 1}``: most rows pass through ``x0`` or one unit
from it, so the slack basis's dual loop meets long runs of pivots with
a zero dual step.  Half the columns are boxed at 4; the costs are zero,
−2..2 or 0..2 by ``seed % 3`` (all-zero costs make every pivot dual
degenerate).  With ``equalities`` the rows whose offset is 0 are
equality rows.  With ``boxed`` every column is boxed at 4.  With
``nonnegative`` the entries are the absolute values of the same draw
(0..3), so ``b ≥ 0``: the lockstep tableau's precondition.
"""

import numpy as np

from repro.lp.problem import LinearProgram
from repro.mip.problem import MIPProblem

#: Row and column counts are drawn from these half-open ranges.
ROWS, COLS = (10, 60), (10, 80)


def degenerate_lp(
    seed: int,
    equalities: bool = False,
    boxed: bool = False,
    rows=ROWS,
    cols=COLS,
    nonnegative: bool = False,
) -> LinearProgram:
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(*rows)), int(rng.integers(*cols))
    a = rng.integers(-3, 4, (m, n)).astype(float)
    if nonnegative:
        a = np.abs(a)
    x0 = rng.integers(0, 5, n).astype(float)
    offset = rng.integers(0, 2, m).astype(float)
    ub = np.where(boxed | (rng.random(n) < 0.5), 4.0, np.inf)
    c = [np.zeros(n), rng.integers(-2, 3, n), rng.integers(0, 3, n)][seed % 3]
    tight = offset == 0.0 if equalities else np.zeros(m, dtype=bool)
    return LinearProgram(
        c=np.asarray(c, float),
        a_ub=a[~tight],
        b_ub=a[~tight] @ x0 + offset[~tight],
        a_eq=a[tight] if tight.any() else None,
        b_eq=a[tight] @ x0 if tight.any() else None,
        lb=np.zeros(n),
        ub=ub,
    )


def degenerate_mip(seed: int, rows=(8, 16), cols=(8, 16)) -> MIPProblem:
    """An all-integer MIP of the family, every column boxed at 4 (the
    default integer box of 1e6 would otherwise decide it); ``x0`` is
    feasible."""
    lp = degenerate_lp(seed, boxed=True, rows=rows, cols=cols)
    return MIPProblem(
        c=lp.c, integer=np.ones(lp.n, dtype=bool), a_ub=lp.a_ub, b_ub=lp.b_ub,
        lb=lp.lb, ub=lp.ub, name=f"degenerate-{seed}",
    )
