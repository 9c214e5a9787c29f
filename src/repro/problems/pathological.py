"""Pathological instance corpus: inputs built to hurt solvers.

Every case here is something a production front door eventually
receives: NaN costs, rows of zeros, duplicate and contradictory
constraints, twelve orders of magnitude between coefficients, the
classic simplex cycling examples, and well-posed problems that are
simply too big for their deadline.  The corpus is the test bed for
:mod:`repro.guard` — ``repro guard`` runs every case through sanitize →
solve under a budget and asserts nothing escapes as an unstructured
exception or a hang.

Each :class:`PathologicalCase` declares what the guard stack is
*expected* to do with it (``expect``):

- ``"reject"``    — the sanitizer must refuse it (fatal issues);
- ``"repair"``    — the sanitizer rewrites it, then it solves clean;
- ``"infeasible"``— sanitation or the solve proves infeasibility;
- ``"solve"``     — solves to optimality (possibly after watchdog
  intervention or engine escalation);
- ``"anytime"``   — a budget stops it; the result must still be a
  structured TIME_LIMIT/ITERATION_LIMIT answer with a dual bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from repro.lp.problem import LinearProgram
from repro.mip.problem import MIPProblem

Problem = Union[LinearProgram, MIPProblem]


@dataclass
class PathologicalCase:
    """One named corpus member."""

    name: str
    #: What the guard stack should do with it (see module docstring).
    expect: str
    build: Callable[[], Problem] = None
    #: Simulated/host deadline override for "anytime" cases (seconds).
    deadline: Optional[float] = None
    notes: str = ""


def _nan_objective() -> LinearProgram:
    return LinearProgram(
        c=np.array([1.0, np.nan]),
        a_ub=np.array([[1.0, 1.0]]),
        b_ub=np.array([4.0]),
        lb=np.zeros(2),
        ub=np.full(2, 10.0),
    )


def _nan_matrix() -> LinearProgram:
    return LinearProgram(
        c=np.array([1.0, 2.0]),
        a_ub=np.array([[1.0, np.nan], [1.0, 1.0]]),
        b_ub=np.array([4.0, 6.0]),
        lb=np.zeros(2),
        ub=np.full(2, 10.0),
    )


def _inf_rhs() -> LinearProgram:
    return LinearProgram(
        c=np.array([1.0, 2.0]),
        a_ub=np.array([[1.0, 1.0], [2.0, 1.0]]),
        b_ub=np.array([np.inf, 6.0]),
        lb=np.zeros(2),
        ub=np.full(2, 10.0),
    )


def _empty_row() -> LinearProgram:
    return LinearProgram(
        c=np.array([3.0, 2.0]),
        a_ub=np.array([[0.0, 0.0], [1.0, 1.0]]),
        b_ub=np.array([5.0, 4.0]),
        lb=np.zeros(2),
        ub=np.full(2, 10.0),
    )


def _empty_row_infeasible() -> LinearProgram:
    return LinearProgram(
        c=np.array([3.0, 2.0]),
        a_ub=np.array([[0.0, 0.0], [1.0, 1.0]]),
        b_ub=np.array([-1.0, 4.0]),
        lb=np.zeros(2),
        ub=np.full(2, 10.0),
    )


def _duplicate_rows() -> LinearProgram:
    return LinearProgram(
        c=np.array([3.0, 2.0]),
        a_ub=np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 0.0]]),
        b_ub=np.array([8.0, 6.0, 3.0]),
        lb=np.zeros(2),
        ub=np.full(2, 10.0),
    )


def _conflicting_eq() -> LinearProgram:
    return LinearProgram(
        c=np.array([1.0, 1.0]),
        a_eq=np.array([[1.0, 1.0], [1.0, 1.0]]),
        b_eq=np.array([2.0, 3.0]),
        lb=np.zeros(2),
        ub=np.full(2, 10.0),
    )


def _crossed_bounds_eps() -> LinearProgram:
    # Crossed by less than LinearProgram's own 1e-12 slack, so only the
    # sanitizer sees it.
    lb = np.array([0.0, 1.0 + 5e-13])
    ub = np.array([10.0, 1.0])
    return LinearProgram(
        c=np.array([1.0, 1.0]),
        a_ub=np.array([[1.0, 1.0]]),
        b_ub=np.array([6.0]),
        lb=lb,
        ub=ub,
    )


def _dynamic_range() -> LinearProgram:
    return LinearProgram(
        c=np.array([1.0, 1.0]),
        a_ub=np.array([[1e-6, 2e-6], [1e7, 3e7]]),
        b_ub=np.array([4e-6, 9e7]),
        lb=np.zeros(2),
        ub=np.full(2, 10.0),
    )


def _beale_cycling() -> LinearProgram:
    """Beale's classic degenerate LP: Dantzig pricing cycles forever."""
    return LinearProgram(
        c=np.array([0.75, -150.0, 0.02, -6.0]),
        a_ub=np.array(
            [
                [0.25, -60.0, -0.04, 9.0],
                [0.5, -90.0, -0.02, 3.0],
                [0.0, 0.0, 1.0, 0.0],
            ]
        ),
        b_ub=np.array([0.0, 0.0, 1.0]),
        lb=np.zeros(4),
        ub=np.full(4, 1e6),
    )


def _zero_matrix() -> LinearProgram:
    # Only the box binds; the PDHG power iteration sees an all-zero K.
    return LinearProgram(
        c=np.array([2.0, 1.0]),
        a_ub=np.array([[0.0, 0.0]]),
        b_ub=np.array([1.0]),
        lb=np.zeros(2),
        ub=np.array([3.0, 4.0]),
    )


def _near_singular() -> LinearProgram:
    eps = 1e-13
    return LinearProgram(
        c=np.array([1.0, 1.0]),
        a_ub=np.array([[1.0, 1.0], [1.0, 1.0 + eps]]),
        b_ub=np.array([2.0, 2.0]),
        lb=np.zeros(2),
        ub=np.full(2, 5.0),
    )


def _mip_wide_range() -> MIPProblem:
    return MIPProblem(
        c=np.array([1e6, 3.0, 2.0]),
        integer=np.array([True, True, False]),
        a_ub=np.array([[1e6, 1.0, 1.0], [0.0, 1.0, 2.0]]),
        b_ub=np.array([2e6, 4.0]),
        lb=np.zeros(3),
        ub=np.array([2.0, 4.0, 4.0]),
    )


def _mip_deadline(seed: int = 11, items: int = 40) -> MIPProblem:
    rng = np.random.default_rng(seed)
    c = rng.uniform(1, 10, items)
    a = rng.uniform(0, 5, (max(6, items // 2), items))
    b = a.sum(axis=1) * 0.35
    return MIPProblem(
        c=c,
        integer=np.ones(items, dtype=bool),
        a_ub=a,
        b_ub=b,
        lb=np.zeros(items),
        ub=np.ones(items),
        name="deadline-knapsack",
    )


def pathological_corpus() -> List[PathologicalCase]:
    """The pinned corpus, in a stable order (reports diff cleanly)."""
    return [
        PathologicalCase("nan-objective", "reject", _nan_objective),
        PathologicalCase("nan-matrix", "reject", _nan_matrix),
        PathologicalCase("inf-rhs", "reject", _inf_rhs),
        PathologicalCase("empty-row", "repair", _empty_row),
        PathologicalCase(
            "empty-row-infeasible", "infeasible", _empty_row_infeasible
        ),
        PathologicalCase("duplicate-rows", "repair", _duplicate_rows),
        PathologicalCase("conflicting-eq", "infeasible", _conflicting_eq),
        PathologicalCase("crossed-bounds-eps", "repair", _crossed_bounds_eps),
        PathologicalCase("dynamic-range", "repair", _dynamic_range),
        PathologicalCase(
            "beale-cycling", "solve", _beale_cycling,
            notes="degenerate; the simplex loops' stall rules",
        ),
        PathologicalCase("zero-matrix", "solve", _zero_matrix),
        PathologicalCase("near-singular", "solve", _near_singular),
        PathologicalCase("mip-wide-range", "solve", _mip_wide_range),
        PathologicalCase(
            "mip-deadline", "anytime", _mip_deadline, deadline=0.25,
            notes="well-posed but budgeted: must stop with a bound",
        ),
    ]


def case_by_name(name: str) -> PathologicalCase:
    """Lookup helper for tests and the CLI."""
    for case in pathological_corpus():
        if case.name == name:
            return case
    raise KeyError(name)
