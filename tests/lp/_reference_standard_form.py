"""The pre-ISSUE-18 standard-form conversion, kept verbatim as the test oracle.

``StandardFormLP.from_linear_program`` and ``recover_x`` exactly as they
stood when they walked the variables one by one in Python (one
``np.zeros`` row per finite upper bound, one column assignment per
structural column) — the layout with every finite bound as a row.
:func:`bounds_beside` takes the bound rows out into ``upper`` and
gives each equality row its slack, fixed at 0, and
``tests/lp/test_problem.py`` pins the index/mask production code to
that bit for bit (values, signed zeros, dtype, shapes);
``tests/lp/_row_form_pins.py`` builds its bounds-as-rows inputs with
:func:`from_linear_program`.  Test-only: nothing under ``src/`` imports
this.
"""

import numpy as np

from repro.lp.problem import LinearProgram, StandardFormLP


def from_linear_program(lp: LinearProgram) -> StandardFormLP:
    """Build the equality standard form (see the module docstring)."""
    n = lp.n
    pos_col = np.zeros(n, dtype=np.int64)
    neg_col = np.full(n, -1, dtype=np.int64)
    shift = np.zeros(n)

    # Build structural columns: shifted (and possibly split) originals.
    col_of_next = 0
    col_blocks = []  # per-original (sign, original index) for each column
    for i in range(n):
        lo, hi = lp.lb[i], lp.ub[i]
        if np.isfinite(lo):
            shift[i] = lo
            pos_col[i] = col_of_next
            col_blocks.append((1.0, i))
            col_of_next += 1
        else:
            # Free below: split x_i = x⁺ - x⁻ (both ≥ 0).
            pos_col[i] = col_of_next
            col_blocks.append((1.0, i))
            col_of_next += 1
            neg_col[i] = col_of_next
            col_blocks.append((-1.0, i))
            col_of_next += 1
    num_structural = col_of_next

    def expand_matrix(mat: np.ndarray) -> np.ndarray:
        out = np.zeros((mat.shape[0], num_structural))
        for col, (sign, i) in enumerate(col_blocks):
            out[:, col] = sign * mat[:, i]
        return out

    rows_a = []
    rows_b = []
    ineq_rows = 0

    shift_full = shift  # x = x_struct(+/-) + shift

    if lp.a_ub is not None:
        a_ub = expand_matrix(lp.a_ub)
        b_ub = lp.b_ub - lp.a_ub @ shift_full
        rows_a.append(a_ub)
        rows_b.append(b_ub)
        ineq_rows += a_ub.shape[0]

    # Finite upper bounds become rows x_i ≤ ub_i - shift_i.
    ub_rows = []
    ub_rhs = []
    for i in range(n):
        hi = lp.ub[i]
        if np.isfinite(hi):
            row = np.zeros(num_structural)
            row[pos_col[i]] = 1.0
            if neg_col[i] >= 0:
                row[neg_col[i]] = -1.0
            ub_rows.append(row)
            ub_rhs.append(hi - shift[i])
    if ub_rows:
        rows_a.append(np.vstack(ub_rows))
        rows_b.append(np.array(ub_rhs))
        ineq_rows += len(ub_rows)

    eq_a = eq_b = None
    if lp.a_eq is not None:
        eq_a = expand_matrix(lp.a_eq)
        eq_b = lp.b_eq - lp.a_eq @ shift_full

    total_ineq = ineq_rows
    total_rows = total_ineq + (0 if eq_a is None else eq_a.shape[0])
    total_cols = num_structural + total_ineq

    a = np.zeros((total_rows, total_cols))
    b = np.zeros(total_rows)
    row0 = 0
    slack0 = num_structural
    for block_a, block_b in zip(rows_a, rows_b):
        r = block_a.shape[0]
        a[row0 : row0 + r, :num_structural] = block_a
        a[row0 : row0 + r, slack0 + row0 : slack0 + row0 + r] = np.eye(r)
        b[row0 : row0 + r] = block_b
        row0 += r
    if eq_a is not None:
        r = eq_a.shape[0]
        a[row0 : row0 + r, :num_structural] = eq_a
        b[row0 : row0 + r] = eq_b

    c = np.zeros(total_cols)
    for col, (sign, i) in enumerate(col_blocks):
        c[col] = sign * lp.c[i]
    offset = float(lp.c @ shift_full)

    return StandardFormLP(
        c=c,
        a=a,
        b=b,
        offset=offset,
        num_structural=num_structural,
        pos_col=pos_col,
        neg_col=neg_col,
        shift=shift,
    )


def recover_x(sf: StandardFormLP, x_standard: np.ndarray) -> np.ndarray:
    """Map a standard-form solution back to original variables."""
    n = sf.pos_col.shape[0]
    x = np.zeros(n)
    for i in range(n):
        value = x_standard[sf.pos_col[i]]
        if sf.neg_col[i] >= 0:
            value -= x_standard[sf.neg_col[i]]
        x[i] = value + sf.shift[i]
    return x


def bounds_beside(lp: LinearProgram) -> StandardFormLP:
    """:func:`from_linear_program` with every bound row of a variable that
    has a finite lower bound taken out of the matrix into ``upper``
    (``ub - lb``, 0 for a fixed variable) with its slack column, and one
    slack column per equality row appended, fixed at ``upper = 0``: the
    layout ``LinearProgram.to_standard_form`` builds directly."""
    sf = from_linear_program(lp)
    num_ub = lp.num_ub_rows
    ub_vars = np.isfinite(lp.ub).nonzero()[0]
    boxed = np.isfinite(lp.lb[ub_vars])
    drop_rows = num_ub + boxed.nonzero()[0]
    keep_rows = np.setdiff1d(np.arange(sf.m), drop_rows)
    keep_cols = np.setdiff1d(np.arange(sf.n), sf.num_structural + drop_rows)
    num_eq = lp.num_eq_rows
    upper = np.full(keep_cols.size + num_eq, np.inf)
    i = ub_vars[boxed]
    upper[sf.pos_col[i]] = np.maximum(lp.ub[i] - sf.shift[i], 0.0)
    upper[keep_cols.size:] = 0.0
    a = np.zeros((keep_rows.size, keep_cols.size + num_eq))
    a[:, : keep_cols.size] = sf.a[np.ix_(keep_rows, keep_cols)]
    for k in range(num_eq):
        a[keep_rows.size - num_eq + k, keep_cols.size + k] = 1.0
    return StandardFormLP(
        c=np.concatenate([sf.c[keep_cols], np.zeros(num_eq)]),
        a=a,
        b=sf.b[keep_rows],
        offset=sf.offset,
        num_structural=sf.num_structural,
        pos_col=sf.pos_col,
        neg_col=sf.neg_col,
        shift=sf.shift,
        upper=upper,
    )
