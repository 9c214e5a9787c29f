"""A1 (ablation) — simplex pricing rules: iterations vs per-iteration cost.

DESIGN.md ablation: Dantzig is the cheapest per iteration but can take
more pivots; Devex spends an extra btran per pivot to choose better
entering columns; Bland is the guaranteed-terminating fallback.  On the
device model the trade shows up as simulated time, not just iteration
counts.

Pricing is the primal loop's choice, so the ablation runs that loop
itself, from the slack basis: ``b_ub = |A| x0 + 0.5`` keeps ``x0``
feasible and makes every slack's value positive there.  (A cold solve
through the door is the dual loop from the same basis, and on these
boxed LPs it never needs the primal loop: all three rules would tie.)
"""

import numpy as np

from repro.device.gpu import Device
from repro.device.spec import V100
from repro.lp.problem import LinearProgram
from repro.lp.result import LPStatus
from repro.lp.simplex import SimplexOptions, solve_standard_form
from repro.lp.warm import slack_start, solve_lp
from repro.reporting import format_seconds, render_table
from repro.strategies.engine import DeviceCostHook

RULES = ["dantzig", "devex", "bland"]


def make_lp(m, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    x0 = rng.random(n)
    return LinearProgram(
        c=rng.standard_normal(n),
        a_ub=a,
        b_ub=np.abs(a) @ x0 + 0.5,
        ub=np.full(n, 10.0),
    )


def run_rules():
    rows = []
    for m, n in ((30, 45), (60, 90)):
        objectives = {}
        for rule in RULES:
            lp = make_lp(m, n, seed=m)
            sf = lp.to_standard_form()
            device = Device(V100)
            hook = DeviceCostHook(device, mode="dense")
            res = solve_standard_form(
                sf, slack_start(sf).basis, options=SimplexOptions(pricing=rule), hook=hook
            )
            assert res.status is LPStatus.OPTIMAL
            objectives[rule] = res.objective
            rows.append(
                (
                    f"{m}x{n}",
                    rule,
                    res.iterations,
                    device.kernel_count(),
                    format_seconds(device.clock.now),
                )
            )
        values = list(objectives.values()) + [solve_lp(make_lp(m, n, seed=m)).objective]
        assert max(values) - min(values) < 1e-6, "pricing changed the optimum"
    return rows


def test_a1_pricing_rules(benchmark, report):
    rows = benchmark.pedantic(run_rules, rounds=1, iterations=1)
    # Bland needs at least as many iterations as the greedy rules.
    for size in {r[0] for r in rows}:
        by_rule = {r[1]: r for r in rows if r[0] == size}
        assert by_rule["bland"][2] >= by_rule["dantzig"][2]
    table = render_table(
        ["LP size", "pricing", "iterations", "kernels", "sim time"],
        rows,
        title="A1 — pricing-rule ablation on the V100 model",
    )
    report.add("A1_pricing", table)
