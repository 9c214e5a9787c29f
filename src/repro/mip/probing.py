"""Probing: tentative fixing of binary variables to tighten the root.

One of the "advanced heuristics such as probing" that strategy 3's
CPU side hosts (paper §3.3).  For each binary variable, both tentative
fixings are propagated through the constraint rows; outcomes:

- both fixings infeasible → the problem is infeasible;
- one fixing infeasible  → the variable is permanently fixed the other
  way (a bound tightening valid for the whole tree);
- implications recorded (x_i = v forces x_j = w) for future use.

Propagation is simple activity-based bound tightening over the ≤-rows —
cheap, sound, and exactly what production solvers run at the root.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.mip.problem import MIPProblem


@dataclass
class ProbingResult:
    """Outcome of a probing pass."""

    #: False when probing proved the problem infeasible.
    feasible: bool
    #: Variables fixed (index -> value).
    fixed: Dict[int, float] = field(default_factory=dict)
    #: Implications (i, v_i) -> list of (j, v_j) forced assignments.
    implications: Dict[Tuple[int, int], List[Tuple[int, int]]] = field(
        default_factory=dict
    )
    #: Tightened bound arrays (valid for the whole tree).
    lb: Optional[np.ndarray] = None
    ub: Optional[np.ndarray] = None

    @property
    def num_fixed(self) -> int:
        """Variables permanently fixed by probing."""
        return len(self.fixed)


def _propagate(
    a: np.ndarray, b: np.ndarray, lb: np.ndarray, ub: np.ndarray, rounds: int = 3
) -> bool:
    """Activity-based bound tightening on A x ≤ b; False if infeasible.

    Mutates ``lb``/``ub`` in place.
    """
    m, n = a.shape
    for _ in range(rounds):
        changed = False
        pos = np.where(a > 0, a, 0.0)
        neg = np.where(a < 0, a, 0.0)
        min_activity = pos @ lb + neg @ ub
        if np.any(min_activity > b + 1e-7):
            return False
        for i in range(m):
            row = a[i]
            support = np.nonzero(np.abs(row) > 1e-12)[0]
            for j in support:
                coeff = row[j]
                # Remaining minimum activity without variable j.
                rest = min_activity[i] - (
                    coeff * (lb[j] if coeff > 0 else ub[j])
                )
                slack = b[i] - rest
                if coeff > 0:
                    new_ub = slack / coeff
                    if new_ub < ub[j] - 1e-9:
                        ub[j] = new_ub
                        changed = True
                else:
                    new_lb = slack / coeff
                    if new_lb > lb[j] + 1e-9:
                        lb[j] = new_lb
                        changed = True
                if lb[j] > ub[j] + 1e-7:
                    return False
        if not changed:
            break
    return True


def probe(problem: MIPProblem, max_variables: int = 64) -> ProbingResult:
    """Probe the binary variables of ``problem``.

    Returns tightened global bounds, permanent fixings, and the
    implication table.  Only ≤-rows participate (equality rows are left
    to the LP); at most ``max_variables`` binaries are probed, most
    constrained first.
    """
    lb = problem.lb.copy()
    ub = problem.ub.copy()
    if problem.a_ub is None:
        return ProbingResult(feasible=True, lb=lb, ub=ub)
    a, b = problem.a_ub, problem.b_ub

    binary = problem.integer & (lb >= -1e-9) & (ub <= 1.0 + 1e-9)
    candidates = np.nonzero(binary & (ub - lb > 0.5))[0]
    # Most-constrained first: by number of row appearances.
    appearances = (np.abs(a) > 1e-12).sum(axis=0)
    candidates = candidates[np.argsort(-appearances[candidates])][:max_variables]

    result = ProbingResult(feasible=True)
    for var in candidates:
        outcomes = {}
        for value in (0.0, 1.0):
            trial_lb, trial_ub = lb.copy(), ub.copy()
            trial_lb[var] = trial_ub[var] = value
            ok = _propagate(a, b, trial_lb, trial_ub)
            outcomes[value] = (ok, trial_lb, trial_ub)
        ok0, lb0, ub0 = outcomes[0.0]
        ok1, lb1, ub1 = outcomes[1.0]
        if not ok0 and not ok1:
            result.feasible = False
            result.lb, result.ub = lb, ub
            return result
        if not ok0:
            lb[var] = ub[var] = 1.0
            result.fixed[int(var)] = 1.0
            lb, ub = lb1, ub1
        elif not ok1:
            lb[var] = ub[var] = 0.0
            result.fixed[int(var)] = 0.0
            lb, ub = lb0, ub0
        else:
            # Record binary implications: x_var = v forces x_j.
            for value, (_ok, t_lb, t_ub) in outcomes.items():
                forced = []
                for j in np.nonzero(binary)[0]:
                    if j == var:
                        continue
                    if t_lb[j] > 0.5 and lb[j] <= 0.5:
                        forced.append((int(j), 1))
                    elif t_ub[j] < 0.5 and ub[j] >= 0.5:
                        forced.append((int(j), 0))
                if forced:
                    result.implications[(int(var), int(value))] = forced

    # Final inward rounding for integer variables.
    idx = problem.integer
    lb[idx] = np.ceil(lb[idx] - 1e-9)
    ub[idx] = np.floor(ub[idx] + 1e-9)
    if np.any(lb > ub + 1e-9):
        result.feasible = False
    result.lb, result.ub = lb, ub
    return result


def apply_probing(problem: MIPProblem, result: ProbingResult) -> MIPProblem:
    """New problem with probing's tightened bounds folded in."""
    if not result.feasible:
        raise ValueError("cannot apply an infeasible probing result")
    return problem.restricted(result.lb, result.ub)
