"""Linear programming: the computational core of branch-and-cut.

The paper's entire §4/§5 discussion is about how the LP relaxation
solver's linear algebra maps onto GPUs, so this package implements the
solvers from scratch on :mod:`repro.la`:

- :mod:`repro.lp.problem` — `LinearProgram` and its standard form.
- :mod:`repro.lp.pricing` — Dantzig / Devex / Bland rules.
- :mod:`repro.lp.simplex` — revised primal simplex with
  product-form-of-inverse basis management (§5.1's rank-1 update loop),
  started from a primal-feasible basis.
- :mod:`repro.lp.dual_simplex` — warm-started re-optimization after
  bound changes and cut rows (§5.2/§5.3's reuse modes).
- :mod:`repro.lp.interior_point` — Mehrotra predictor–corrector (the
  §2.3 interior-point alternative).
- :mod:`repro.lp.batch_simplex` — lockstep batched simplex advancing
  many small LPs SIMD-style (§5.5).
- :mod:`repro.lp.pdhg` — restarted primal-dual hybrid gradient (the
  PDLP recipe): the first-order engine the GPU-LP literature says is
  the one that actually scales, with KKT-residual restarts/termination.
  One lockstep loop; a single LP is a batch of one.
- :mod:`repro.lp.pdhg_batch` — the many-LP entry points over that loop
  (one GEMM pair per sweep for sibling node LPs) and their device
  pricing.
- :mod:`repro.lp.warm` — the one LP door: an audited warm re-solve
  (basis + factorization reuse across related solves), a cold start
  from the slack basis in the same audited loop when its state is
  refused, the primal loop finishing that start when it has to, one
  outcome record out; and :func:`~repro.lp.warm.solve_lp`, the cold
  solve of a ``LinearProgram``.

`scipy.optimize.linprog` is used only in tests, as an oracle.
"""

from repro.lp.problem import LinearProgram, StandardFormLP
from repro.lp.result import LPResult, LPStatus
from repro.lp.simplex import SimplexOptions, solve_standard_form
from repro.lp.dual_simplex import dual_simplex_resolve
from repro.lp.interior_point import interior_point_solve
from repro.lp.batch_simplex import BatchLPResult, solve_lp_batch
from repro.lp.pdhg import PDHGCostHook, PDHGOptions, PDHGResult, solve_lp_pdhg
from repro.lp.pdhg_batch import BatchPDHGResult, solve_lp_pdhg_batch
from repro.lp.warm import (
    WarmSolveOutcome,
    WarmStartState,
    audit_warm_lp,
    solve_lp,
    solve_warm_or_cold,
    warm_resolve,
)

__all__ = [
    "LinearProgram",
    "StandardFormLP",
    "LPResult",
    "LPStatus",
    "SimplexOptions",
    "solve_lp",
    "solve_standard_form",
    "dual_simplex_resolve",
    "interior_point_solve",
    "solve_lp_batch",
    "BatchLPResult",
    "PDHGOptions",
    "PDHGCostHook",
    "PDHGResult",
    "solve_lp_pdhg",
    "BatchPDHGResult",
    "solve_lp_pdhg_batch",
    "WarmStartState",
    "WarmSolveOutcome",
    "audit_warm_lp",
    "solve_warm_or_cold",
    "warm_resolve",
]
