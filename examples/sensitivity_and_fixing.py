"""Post-optimal analysis: duals, ranging, and reduced-cost fixing.

All the quantities below are read off the resident basis factors with
the same ftran/btran kernels the simplex already runs — free insight on
the device (§5.1's regime).  Reduced-cost fixing then removes variables
from the search for the whole subtree.

Run:  python examples/sensitivity_and_fixing.py
"""

import numpy as np

from repro.lp.sensitivity import analyze, reduced_cost_fixing
from repro.lp.simplex import solve_standard_form
from repro.problems import generate_knapsack
from repro.reporting import render_table

problem = generate_knapsack(12, seed=7)
sf = problem.relaxation().to_standard_form()
res = solve_standard_form(sf)
assert res.ok

report = analyze(sf, res)
print(f"LP bound: {res.objective:.2f}\n")

print("row duals and rhs ranging (how far each rhs can move):")
rows = []
for i in range(min(sf.m, 6)):
    lo, hi = report.rhs_ranges[i]
    rows.append(
        (
            f"row {i}",
            f"{report.duals[i]:.3f}",
            "-inf" if not np.isfinite(lo) else f"{lo:.2f}",
            "+inf" if not np.isfinite(hi) else f"{hi:.2f}",
        )
    )
print(render_table(["row", "dual", "Δb min", "Δb max"], rows))

# Fixing reads the reduced costs on the bounded form the tree solves
# (a column per variable, 0 ≤ x − lb ≤ ub − lb): the duals price them.
lp = problem.relaxation()
bf = lp.to_bounded_form()
bres = solve_standard_form(bf)
d = bf.c - bf.a.T @ bres.duals
columns = np.where(problem.integer & (bf.neg_col < 0), bf.pos_col, -1)
for gap_label, incumbent in (
    ("weak incumbent (bound − 50)", bres.objective - 50.0),
    ("strong incumbent (bound − 1)", bres.objective - 1.0),
):
    lb, ub = reduced_cost_fixing(
        d, bres.basis, bres.at_upper, bres.objective - incumbent, lp.lb, lp.ub, columns
    )
    at_zero, at_one = np.nonzero(ub < lp.ub)[0], np.nonzero(lb > lp.lb)[0]
    print(
        f"\n{gap_label}: {at_zero.size} items fixed out, {at_one.size} fixed in "
        "by reduced cost"
    )
    if at_zero.size or at_one.size:
        print(f"  fixed out: {at_zero.tolist()}  fixed in: {at_one.tolist()}")
