"""Probing: tentative fixing of binary variables to tighten the root.

One of the "advanced heuristics such as probing" that strategy 3's
CPU side hosts (paper §3.3).  For each binary variable, both tentative
fixings are propagated through the constraint rows as one ``(2, n)``
stack; outcomes:

- both fixings infeasible → the problem is infeasible;
- one fixing infeasible  → the variable is permanently fixed the other
  way (a bound tightening valid for the whole tree).

Propagation is the tree's activity-based bound tightening
(:class:`repro.mip.propagation.Propagator`): ≤-rows, and equality rows
in both directions, with integer bounds rounded inward — cheap, sound,
and exactly what production solvers run at the root.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.mip.problem import MIPProblem
from repro.mip.propagation import Propagator


@dataclass
class ProbingResult:
    """Outcome of a probing pass."""

    #: False when probing proved the problem infeasible.
    feasible: bool
    #: Variables fixed (index -> value).
    fixed: Dict[int, float] = field(default_factory=dict)
    #: Tightened bound arrays (valid for the whole tree).
    lb: Optional[np.ndarray] = None
    ub: Optional[np.ndarray] = None

    @property
    def num_fixed(self) -> int:
        """Variables permanently fixed by probing."""
        return len(self.fixed)


def probe(problem: MIPProblem, max_variables: int = 64) -> ProbingResult:
    """Probe the binary variables of ``problem``.

    Returns tightened global bounds and permanent fixings.  At most
    ``max_variables`` binaries are probed, most constrained first.
    """
    lb = problem.lb.copy()
    ub = problem.ub.copy()
    rows = [a for a in (problem.a_ub, problem.a_eq) if a is not None]
    if not rows:
        return ProbingResult(feasible=True, lb=lb, ub=ub)

    binary = problem.integer & (lb >= -1e-9) & (ub <= 1.0 + 1e-9)
    candidates = np.nonzero(binary & (ub - lb > 0.5))[0]
    # Most-constrained first: by number of row appearances.
    appearances = sum((np.abs(a) > 1e-12).sum(axis=0) for a in rows)
    candidates = candidates[np.argsort(-appearances[candidates])][:max_variables]

    propagate = Propagator(problem)
    result = ProbingResult(feasible=True)
    for var in candidates:
        # Row 0 fixes the variable to 0, row 1 to 1.
        trial_lb, trial_ub = np.array([lb, lb]), np.array([ub, ub])
        trial_lb[:, var] = trial_ub[:, var] = (0.0, 1.0)
        (lb0, lb1), (ub0, ub1), (ok0, ok1) = propagate(trial_lb, trial_ub)
        if not ok0 and not ok1:
            result.feasible = False
            result.lb, result.ub = lb, ub
            return result
        # The surviving trial's box: the variable fixed, the rows propagated
        # (integer bounds already rounded inward).
        if not ok0:
            result.fixed[int(var)] = 1.0
            lb, ub = lb1, ub1
        elif not ok1:
            result.fixed[int(var)] = 0.0
            lb, ub = lb0, ub0

    result.lb, result.ub = lb, ub
    return result


def apply_probing(problem: MIPProblem, result: ProbingResult) -> MIPProblem:
    """New problem with probing's tightened bounds folded in."""
    if not result.feasible:
        raise ValueError("cannot apply an infeasible probing result")
    return problem.restricted(result.lb, result.ub)
