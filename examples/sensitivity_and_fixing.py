"""Post-optimal analysis: duals, ranging, and reduced-cost fixing.

All the quantities below are read off the resident basis factors with
the same ftran/btran kernels the simplex already runs — free insight on
the device (§5.1's regime).  Reduced-cost fixing then removes variables
from the search for the whole subtree.

Run:  python examples/sensitivity_and_fixing.py
"""

import numpy as np

from repro.lp.sensitivity import analyze, reduced_cost_fixing
from repro.lp.warm import solve_warm_or_cold
from repro.problems import generate_knapsack
from repro.reporting import render_table

problem = generate_knapsack(12, seed=7)
lp = problem.relaxation()
sf = lp.to_standard_form()  # one column per item, 0 ≤ x ≤ 1 beside the row
res = solve_warm_or_cold(sf, None).result
assert res.ok

report = analyze(sf, res)
print(f"LP bound: {res.objective:.2f}\n")


def bound(value: float, sign: str) -> str:
    return f"{sign}inf" if not np.isfinite(value) else f"{value:.2f}"


print("row duals and rhs ranging (how far each rhs can move):")
rows = [
    (f"row {i}", f"{report.duals[i]:.3f}", bound(lo, "-"), bound(hi, "+"))
    for i, (lo, hi) in enumerate(report.rhs_ranges)
]
print(render_table(["row", "dual", "Δb min", "Δb max"], rows))

print("\nnonbasic items: the bound they sit at and how far their cost may move:")
rows = [
    (
        f"item {i}",
        "ub" if res.at_upper[j] else "lb",
        f"{report.reduced_costs[j]:.3f}",
        bound(report.cost_ranges[j][0], "-"),
        bound(report.cost_ranges[j][1], "+"),
    )
    for i, j in enumerate(sf.pos_col)
    if j not in set(res.basis.tolist())
]
print(render_table(["item", "at", "d", "Δc min", "Δc max"], rows))

# Fixing reads the same reduced costs (a column per variable,
# 0 ≤ x − lb ≤ ub − lb): the duals price them.
d = sf.c - sf.a.T @ res.duals
columns = np.where(problem.integer & (sf.neg_col < 0), sf.pos_col, -1)
for gap_label, incumbent in (
    ("weak incumbent (bound − 50)", res.objective - 50.0),
    ("strong incumbent (bound − 1)", res.objective - 1.0),
):
    lb, ub = reduced_cost_fixing(
        d, res.basis, res.at_upper, res.objective - incumbent, lp.lb, lp.ub, columns
    )
    at_zero, at_one = np.nonzero(ub < lp.ub)[0], np.nonzero(lb > lp.lb)[0]
    print(
        f"\n{gap_label}: {at_zero.size} items fixed out, {at_one.size} fixed in "
        "by reduced cost"
    )
    if at_zero.size or at_one.size:
        print(f"  fixed out: {at_zero.tolist()}  fixed in: {at_one.tolist()}")
