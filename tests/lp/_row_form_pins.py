"""Row-form pivot pins: what the revised loops did before they learned bounds.

On a bounds-as-rows input (every finite bound a row, no ``upper``,
built by ``_reference_standard_form.from_linear_program``) the bounded
primal and dual loops must take the pivots the row-only loops took: no
flips exist, the leaving and entering choices are the same.  ``golden_row_form_pivots.json``
holds, per case, the status, the iteration count and the final basis
recorded at the commit *before* ISSUE 22; ``test_bounded_simplex.py``
compares entry for entry.

The corpus: the ``cluster-dup`` base LPs (the perf workload's pinned
generator) cold, then re-solved by the dual simplex from the base basis
under re-scaled right-hand sides; the ``test_dual_simplex.py`` cut-row
re-solves; the ``test_simplex.py`` random families, all three pricing
rules and a refactor-every-pivot run.

Re-record (only at a commit whose pivots are the reference)::

    PYTHONPATH=src python tests/lp/_row_form_pins.py
"""

import json
from pathlib import Path

import numpy as np

from repro.lp.dual_simplex import WarmStartState, dual_simplex_resolve
from repro.lp.problem import LinearProgram
from repro.lp.simplex import SimplexOptions, solve_standard_form

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
        sf = from_linear_program(lp)
        base = solve_standard_form(sf)
        out[f"cluster-dup/{i}/primal"] = _pin(base)
        for scale in RHS_SCALES:
            scaled = from_linear_program(
                LinearProgram(c=lp.c, a_ub=lp.a_ub, b_ub=lp.b_ub * scale)
            )
            out[f"cluster-dup/{i}/dual/x{scale}"] = _pin(
                dual_simplex_resolve(scaled, WarmStartState(base.basis, (scaled.m, scaled.n)))
            )
    for seed in range(8):
        sf = from_linear_program(_dual_corpus_lp(seed))
        base = solve_standard_form(sf)
        out[f"dual-corpus/{seed}/primal"] = _pin(base)
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
            out[f"{family}/{seed}/primal"] = _pin(
                solve_standard_form(from_linear_program(build(seed)))
            )
    sf = from_linear_program(_inequality_lp(7))
    for pricing in ("dantzig", "devex", "bland"):
        out[f"pricing/{pricing}"] = _pin(
            solve_standard_form(sf, SimplexOptions(pricing=pricing))
        )
    out["refactor-every-pivot"] = _pin(
        solve_standard_form(sf, SimplexOptions(refactor_interval=1))
    )
    return out


if __name__ == "__main__":
    recorded = pins()
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} row-form pins -> {GOLDEN}")
