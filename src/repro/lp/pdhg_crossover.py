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
the curves cross — this module measures where.

Both engines solve the *same* batch of dense box-constrained LPs
(shared ``A`` across members, per-member rhs — the B&B-frontier shape,
which also satisfies the lockstep-simplex preconditions) on fresh
simulated devices, and the sweep asserts they agree on every member
before timing is believed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.device.gpu import Device
from repro.device.spec import V100, DeviceSpec
from repro.lp.batch_simplex import solve_lp_batch_on_device
from repro.lp.pdhg import PDHGOptions
from repro.lp.pdhg_batch import solve_lp_pdhg_batch_on_device
from repro.lp.problem import LinearProgram
from repro.lp.result import LPStatus
from repro.obs.bench import bench_payload

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


def measure_crossover_point(
    sizes: Sequence[int],
    batch: int = 16,
    eps: float = CROSSOVER_EPS,
    spec: DeviceSpec = V100,
    seed: int = 2027,
) -> Tuple[List[Dict], Dict]:
    """Time both engines across ``sizes``; returns (rows, summary).

    Each row is a flat JSON-ready dict; the summary carries the measured
    crossover (smallest ``m`` where batched PDHG's simulated makespan
    beats batched simplex's), or ``None`` when the sweep never crossed.
    """
    options = PDHGOptions(tolerance=eps)
    rows: List[Dict] = []
    for size in sizes:
        m = n = int(size)
        lps = crossover_instances(m, n, batch, seed=seed)

        pdhg_dev = Device(spec)
        pdhg = solve_lp_pdhg_batch_on_device(lps, pdhg_dev, options=options)
        pdhg_seconds = pdhg_dev.clock.now

        simplex_dev = Device(spec)
        simplex = solve_lp_batch_on_device(lps, simplex_dev)
        simplex_seconds = simplex_dev.clock.now

        max_rel_gap = 0.0
        for i in range(batch):
            if pdhg.statuses[i] is not LPStatus.OPTIMAL:
                raise AssertionError(
                    f"crossover sweep: PDHG member {i} at m={m} ended "
                    f"{pdhg.statuses[i].value}, not optimal"
                )
            if simplex.statuses[i] is not LPStatus.OPTIMAL:
                raise AssertionError(
                    f"crossover sweep: simplex member {i} at m={m} ended "
                    f"{simplex.statuses[i].value}, not optimal"
                )
            scale = 1.0 + abs(float(simplex.objectives[i]))
            rel = abs(float(pdhg.objectives[i]) - float(simplex.objectives[i])) / scale
            max_rel_gap = max(max_rel_gap, rel)
        if max_rel_gap > CROSSOVER_AGREE_RTOL:
            raise AssertionError(
                f"crossover sweep: engines disagree at m={m} "
                f"(relative gap {max_rel_gap:.3g})"
            )

        rows.append(
            {
                "m": m,
                "n": n,
                "batch": batch,
                "pdhg_seconds": pdhg_seconds,
                "simplex_seconds": simplex_seconds,
                "speedup": simplex_seconds / pdhg_seconds,
                "pdhg_sweeps": int(pdhg.iterations),
                "pdhg_restarts": int(pdhg.restarts),
                "max_rel_gap": max_rel_gap,
            }
        )

    crossover_m: Optional[int] = None
    for row in rows:
        if row["pdhg_seconds"] < row["simplex_seconds"]:
            crossover_m = row["m"]
            break
    summary = {
        "crossover_m": crossover_m,
        "largest_speedup": max(r["speedup"] for r in rows),
        "device": spec.name,
    }
    return rows, summary


def crossover_bench_payload(
    sizes: Sequence[int],
    batch: int = 16,
    eps: float = CROSSOVER_EPS,
    spec: DeviceSpec = V100,
    seed: int = 2027,
) -> Dict:
    """Run the sweep and package it in the ``repro.obs.bench`` schema."""
    rows, summary = measure_crossover_point(
        sizes, batch=batch, eps=eps, spec=spec, seed=seed
    )
    return bench_payload(
        "pdhg_crossover",
        rows,
        params={
            "batch": batch,
            "eps": eps,
            "seed": seed,
            "device": spec.name,
            "sizes": ",".join(str(s) for s in sizes),
        },
        summary=summary,
    )
