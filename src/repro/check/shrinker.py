"""Greedy instance minimization for failing checks.

Given a failing instance and a predicate "does this instance still
fail?", the shrinker walks a fixed schedule of reductions — drop row
chunks (delta-debugging style: halves before singles), drop variables,
round coefficients to fewer digits — accepting any candidate that keeps
the failure alive, until a full sweep makes no progress or the attempt
budget runs out.  The result is the small, human-readable instance that
goes into the repro file.

The predicate must be *deterministic* (seeded solvers only) or the
shrink can wander; every candidate is re-validated through
:class:`MIPProblem`'s constructor and rejected on format errors, so the
shrinker can never produce an unloadable repro.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator, List, Optional

import numpy as np

from repro.errors import ProblemFormatError, ReproError
from repro.mip.problem import MIPProblem

Predicate = Callable[[MIPProblem], bool]


def _size(problem: MIPProblem) -> tuple:
    """Lexicographic size: rows, vars, then nonzeros (smaller is better)."""
    rows = (0 if problem.a_ub is None else problem.a_ub.shape[0]) + (
        0 if problem.a_eq is None else problem.a_eq.shape[0]
    )
    nnz = 0
    for block in (problem.a_ub, problem.a_eq):
        if block is not None:
            nnz += int(np.count_nonzero(block))
    return (rows, problem.n, nnz)


def _rebuild(
    problem: MIPProblem,
    *,
    keep_vars: Optional[np.ndarray] = None,
    keep_ub: Optional[np.ndarray] = None,
    keep_eq: Optional[np.ndarray] = None,
    transform: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> Optional[MIPProblem]:
    """Candidate with rows/vars dropped and/or coefficients transformed,
    built through the record (``dataclasses.replace``) on copies of its
    arrays."""
    arrays = problem.arrays(copy=True)
    integer = problem.integer.copy()
    for a, b, keep in (("a_ub", "b_ub", keep_ub), ("a_eq", "b_eq", keep_eq)):
        if arrays[a] is not None and keep is not None:
            rows = keep if keep.any() else None
            arrays[a] = None if rows is None else arrays[a][rows]
            arrays[b] = None if rows is None else arrays[b][rows]
    if keep_vars is not None:
        if not keep_vars.any():
            return None
        integer = integer[keep_vars]
        for name in ("c", "lb", "ub"):
            arrays[name] = arrays[name][keep_vars]
        for name in ("a_ub", "a_eq"):
            if arrays[name] is not None:
                arrays[name] = arrays[name][:, keep_vars]
    if transform is not None:
        arrays = {
            name: None if array is None else transform(array)
            for name, array in arrays.items()
        }
    try:
        return replace(problem, integer=integer, name=f"{problem.name}~shrunk", **arrays)
    except ProblemFormatError:
        return None


def _chunk_masks(count: int) -> Iterator[np.ndarray]:
    """Drop-masks over ``count`` items: halves, quarters, …, singles."""
    if count <= 0:
        return
    chunk = max(1, count // 2)
    while chunk >= 1:
        for start in range(0, count, chunk):
            keep = np.ones(count, dtype=bool)
            keep[start : start + chunk] = False
            yield keep
        if chunk == 1:
            break
        chunk //= 2


def _row_candidates(problem: MIPProblem) -> Iterator[MIPProblem]:
    num_ub = 0 if problem.a_ub is None else problem.a_ub.shape[0]
    num_eq = 0 if problem.a_eq is None else problem.a_eq.shape[0]
    for keep in _chunk_masks(num_ub):
        candidate = _rebuild(problem, keep_ub=keep)
        if candidate is not None:
            yield candidate
    for keep in _chunk_masks(num_eq):
        candidate = _rebuild(problem, keep_eq=keep)
        if candidate is not None:
            yield candidate


def _var_candidates(problem: MIPProblem) -> Iterator[MIPProblem]:
    for keep in _chunk_masks(problem.n):
        candidate = _rebuild(problem, keep_vars=keep)
        if candidate is not None:
            yield candidate


def _coefficient_candidates(problem: MIPProblem) -> Iterator[MIPProblem]:
    for decimals in (0, 1, 2):
        candidate = _rebuild(
            problem, transform=lambda arr, d=decimals: np.round(arr, d)
        )
        if candidate is not None:
            yield candidate


@dataclass
class ShrinkResult:
    """Outcome of one shrink run."""

    problem: MIPProblem
    original_size: tuple
    final_size: tuple
    attempts: int
    rounds: int

    @property
    def reduced(self) -> bool:
        """True when the instance got strictly smaller."""
        return self.final_size < self.original_size


def shrink(
    problem: MIPProblem,
    predicate: Predicate,
    max_attempts: int = 300,
) -> ShrinkResult:
    """Greedily minimize ``problem`` while ``predicate`` keeps holding.

    ``predicate(candidate)`` must return True when the candidate still
    exhibits the failure; predicate exceptions count as "does not fail"
    so a shrink can never crash the fuzzing loop.
    """
    current = problem
    original = _size(problem)
    attempts = 0
    rounds = 0

    def still_fails(candidate: MIPProblem) -> bool:
        nonlocal attempts
        attempts += 1
        try:
            return bool(predicate(candidate))
        except ReproError:
            return False

    improved = True
    while improved and attempts < max_attempts:
        improved = False
        rounds += 1
        for pass_fn in (_row_candidates, _var_candidates, _coefficient_candidates):
            # Re-enumerate after every acceptance: the candidate space
            # depends on the current instance.
            accepted = True
            while accepted and attempts < max_attempts:
                accepted = False
                for candidate in pass_fn(current):
                    if attempts >= max_attempts:
                        break
                    if _size(candidate) >= _size(current):
                        continue
                    if still_fails(candidate):
                        current = candidate
                        accepted = True
                        improved = True
                        break
    return ShrinkResult(
        problem=current,
        original_size=original,
        final_size=_size(current),
        attempts=attempts,
        rounds=rounds,
    )
