"""Row-form pivot pins: the pivots the loops take on bounds-as-rows inputs.

On a bounds-as-rows input (every finite bound a row, no ``upper`` but
the equality rows' fixed slacks, built by :func:`row_form`) no flips
exist, so the pins fix the loops' leaving and entering choices alone.
``golden_row_form_pivots.json`` holds, per case, the status, the
iteration count and the final basis; ``test_bounded_simplex.py``
compares entry for entry.  They were recorded once a cold solve became
the dual loop from the slack basis (no phase 1): the cold pins are the
door's, and the pricing pins the primal loop's own, from the slack
basis.

The corpus: the ``cluster-dup`` base LPs (the perf workload's pinned
generator) cold, then re-solved by the dual simplex from the base basis
under re-scaled right-hand sides; the ``test_dual_simplex.py`` cut-row
re-solves; the ``test_simplex.py`` random families cold; and the primal
loop under all three pricing rules and a refactor-every-pivot run.

Re-record (only at a commit whose pivots are the reference)::

    PYTHONPATH=src python tests/lp/_row_form_pins.py
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.lp.dual_simplex import WarmStartState, dual_simplex_resolve
from repro.lp.problem import LinearProgram, StandardFormLP
from repro.lp.simplex import SimplexOptions, solve_standard_form
from repro.lp.warm import slack_start, solve_warm_or_cold

try:
    from ._reference_standard_form import from_linear_program
except ImportError:  # run as a script
    from _reference_standard_form import from_linear_program

GOLDEN = Path(__file__).with_name("golden_row_form_pivots.json")

RHS_SCALES = (0.5, 0.8, 1.25, 1.5)


def _cluster_dup_bases():
    rng = np.random.default_rng(20210809)
    for _ in range(32):
        a = 0.1 + rng.random((8, 10))
        b = a.sum(axis=1) * (0.3 + 0.2 * rng.random(8))
        yield LinearProgram(c=1.0 + rng.random(10), a_ub=a, b_ub=b)


def _dual_corpus_lp(seed, m=6, n=8):
    rng = np.random.default_rng(seed)
    return LinearProgram(
        c=rng.standard_normal(n) + 0.5,
        a_ub=rng.standard_normal((m, n)),
        b_ub=rng.random(m) * 4 + 1,
        ub=np.full(n, 10.0),
    )


def _inequality_lp(seed):
    rng = np.random.default_rng(seed)
    m, n = rng.integers(2, 9), rng.integers(2, 9)
    return LinearProgram(
        c=rng.standard_normal(n),
        a_ub=rng.standard_normal((m, n)),
        b_ub=rng.random(m) * 5 + 0.5,
        ub=np.full(n, 10.0),
    )


def _mixed_lp(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(3, 8))
    m_ub, m_eq = int(rng.integers(1, 5)), int(rng.integers(1, 3))
    x_feas = rng.random(n)
    a_ub = rng.standard_normal((m_ub, n))
    a_eq = rng.standard_normal((m_eq, n))
    return LinearProgram(
        c=rng.standard_normal(n),
        a_ub=a_ub,
        b_ub=a_ub @ x_feas + rng.random(m_ub) + 0.1,
        a_eq=a_eq,
        b_eq=a_eq @ x_feas,
        ub=np.full(n, 20.0),
    )


def _infeasible_lp(seed):
    rng = np.random.default_rng(200 + seed)
    n = int(rng.integers(2, 6))
    row = rng.random(n) + 0.1
    return LinearProgram(
        c=rng.standard_normal(n),
        a_ub=np.vstack([row, -row]),
        b_ub=np.array([1.0, -2.0]),
        ub=np.full(n, 100.0),
    )


def row_form(lp: LinearProgram) -> StandardFormLP:
    """:func:`from_linear_program` with a slack per equality row (its last
    rows), fixed at 0: the form's last m columns are its slack identity."""
    sf = from_linear_program(lp)
    k = lp.num_eq_rows
    if not k:
        return sf
    a = np.hstack([sf.a, np.zeros((sf.m, k))])
    a[sf.m - k:, sf.n:] = np.eye(k)
    upper = np.concatenate([np.full(sf.n, np.inf), np.zeros(k)])
    return replace(sf, a=a, c=np.concatenate([sf.c, np.zeros(k)]), upper=upper)


def _cold(sf):
    return solve_warm_or_cold(sf, None).result


def _pin(result) -> dict:
    return {
        "status": result.status.value,
        "iterations": int(result.iterations),
        "basis": None if result.basis is None else [int(j) for j in result.basis],
    }


def pins() -> dict:
    """Every case's ``{status, iterations, basis}`` with bounds as rows."""
    out = {}
    for i, lp in enumerate(_cluster_dup_bases()):
        sf = row_form(lp)
        base = _cold(sf)
        out[f"cluster-dup/{i}/cold"] = _pin(base)
        for scale in RHS_SCALES:
            scaled = row_form(
                LinearProgram(c=lp.c, a_ub=lp.a_ub, b_ub=lp.b_ub * scale)
            )
            out[f"cluster-dup/{i}/dual/x{scale}"] = _pin(
                dual_simplex_resolve(scaled, WarmStartState(base.basis, (scaled.m, scaled.n)))
            )
    for seed in range(8):
        sf = row_form(_dual_corpus_lp(seed))
        base = _cold(sf)
        out[f"dual-corpus/{seed}/cold"] = _pin(base)
        row = np.random.default_rng(seed + 999).standard_normal(sf.n)
        grown = sf.with_appended_rows(row, float(row @ base.x_standard) - 0.5)
        out[f"dual-corpus/{seed}/cut"] = _pin(
            dual_simplex_resolve(
                grown,
                WarmStartState(np.concatenate([base.basis, [sf.n]]), (grown.m, grown.n)),
            )
        )
    families = (("inequality", _inequality_lp, 20), ("mixed", _mixed_lp, 10),
                ("infeasible", _infeasible_lp, 6))
    for family, build, count in families:
        for seed in range(count):
            out[f"{family}/{seed}/cold"] = _pin(_cold(row_form(build(seed))))
    # b > 0: the slack basis is primal feasible.
    sf = row_form(next(_cluster_dup_bases()))
    start = slack_start(sf).basis
    for pricing in ("dantzig", "devex", "bland"):
        out[f"pricing/{pricing}"] = _pin(
            solve_standard_form(sf, start, options=SimplexOptions(pricing=pricing))
        )
    out["refactor-every-pivot"] = _pin(
        solve_standard_form(sf, start, options=SimplexOptions(refactor_interval=1))
    )
    return out


if __name__ == "__main__":
    recorded = pins()
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} row-form pins -> {GOLDEN}")
