"""The dense crossover: batched PDHG vs batched simplex on one device.

The design question behind :mod:`repro.lp.pdhg` (and experiment E14): at
what node-LP size does the first-order engine's kernel stream — fixed
launch count per sweep, **zero** serial depth — beat the batched simplex
stream, whose triangular solves pay ``serial_depth = m`` synchronization
per lockstep iteration?  Small LPs favor simplex (few pivots, the sync
cost hasn't compounded).  As ``m`` grows the per-iteration sync bill
grows like ``m`` while the pivot count grows like ``m`` again — a
quadratic total.  PDHG's sweep count is governed by conditioning, not
dimension — and with each member's step sized by the face it moves on
(the step ceiling in :mod:`repro.lp.pdhg`) not by ‖K‖₂ either, which on
this family is one dominant rank-one direction that grows like ``m``.
Neither engine pays for the box of the LPs MIP nodes actually are: PDHG
projects onto it, the lockstep simplex keeps it beside the tableau
(bound flips and column complements, no rows).  Somewhere in between
the curves cross — experiment E14 measures where.

This module is the *workload*: both engines solve the same batch of
dense box-constrained LPs (shared ``A`` across members, per-member rhs
— the B&B-frontier shape, which also satisfies the lockstep-simplex
preconditions), at :data:`CROSSOVER_EPS`, and a timing is believed only
after they agree within :data:`CROSSOVER_AGREE_RTOL` on every member.
The sweep over it is ``benchmarks/bench_e14_pdhg_crossover.py``; the
perf ledger's ``lp-batch`` workload runs the same instances.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.lp.problem import LinearProgram

#: Default KKT tolerance for the crossover sweep.  The node-LP regime
#: needs bound-quality answers, not vertex precision; 1e-4 is the
#: accuracy class the batched-MIP literature runs first-order node
#: relaxations at (bounds are tolerance-padded downstream).
CROSSOVER_EPS = 1e-4

#: Relative objective agreement required between the two engines before
#: a timing row is believed (generous vs eps: both sides are inexact at
#: the KKT scale, the comparison is on objectives).
CROSSOVER_AGREE_RTOL = 1e-2


def crossover_instances(
    m: int, n: int, batch: int, seed: int = 2027
) -> List[LinearProgram]:
    """A B&B-frontier-shaped batch of dense box-constrained LPs.

    Shared positive ``A`` (so PDHG's fused-GEMM fast path and the
    lockstep simplex both apply), per-member rhs at 30–50% of the row
    sums, and the unit box ``0 ≤ x ≤ 1`` — the fractional-knapsack shape
    a MIP relaxation presents.  The box costs neither engine a row:
    PDHG projects onto it and the lockstep simplex handles it as
    implicit bounds, so both work at the true dimension ``m``.  What
    the box still costs the simplex is *rounds* — every variable that
    ends at its bound gets there by a bound flip or a pivot.
    """
    rng = np.random.default_rng(seed)
    a = 0.1 + rng.random((m, n))
    c = 1.0 + rng.random(n)
    lps = []
    for _ in range(batch):
        b = a.sum(axis=1) * (0.3 + 0.2 * rng.random(m))
        lps.append(
            LinearProgram(
                c=c.copy(),
                a_ub=a.copy(),
                b_ub=b,
                lb=np.zeros(n),
                ub=np.ones(n),
            )
        )
    return lps
