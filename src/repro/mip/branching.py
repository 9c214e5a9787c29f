"""Branching-variable selection rules.

The paper (§5.3) notes that a GPU-based solver "would entail choosing a
branching scheme … qualitatively different from a traditional CPU-based
solver's".  Three classic rules are provided so the ablation benches can
measure the trade-off between per-node cost and tree size:

- ``most_fractional`` — pick the integer variable whose value is nearest
  0.5 away from integrality; free, but weak.
- ``pseudocost`` — learned average objective degradation per unit of
  fractionality in each direction; near-free once warmed up.
- ``strong`` — tentatively solve both child LPs for the top candidates;
  expensive per node, smallest trees (and on a GPU the two child LPs are
  an obvious batched pair).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.errors import MIPError, ReproError

#: Candidates strong branching probes per node (most fractional first).
STRONG_CANDIDATES = 4
#: Observations per direction before a pseudocost counts as reliable.
RELIABILITY = 2

#: Tentative child-LP solver used by strong branching:
#: (var, new_lb, new_ub) -> optimal objective or -inf when infeasible.
ChildProbe = Callable[[int, Optional[float], Optional[float]], float]


class BranchingRule:
    """Interface: choose the branching variable from the fractional set."""

    name = "base"

    def select(
        self,
        fractional: np.ndarray,
        x: np.ndarray,
        bound: float,
        probe: Optional[ChildProbe] = None,
    ) -> int:
        """Return the chosen variable index (a member of ``fractional``)."""
        raise NotImplementedError

    def record(
        self, var: int, direction: str, fractionality: float, degradation: float
    ) -> None:
        """Feed back the observed bound degradation of a branch child."""


class MostFractionalBranching(BranchingRule):
    """Variable with fractional part closest to 0.5."""

    name = "most_fractional"

    def select(self, fractional, x, bound, probe=None) -> int:
        if fractional.size == 0:
            raise MIPError("no fractional variable to branch on")
        frac = x[fractional] - np.floor(x[fractional])
        return int(fractional[np.argmin(np.abs(frac - 0.5))])


@dataclass
class _PseudocostEntry:
    up_sum: float = 0.0
    up_count: int = 0
    down_sum: float = 0.0
    down_count: int = 0

    def estimate(self, direction: str, default: float) -> float:
        if direction == "up":
            return self.up_sum / self.up_count if self.up_count else default
        return self.down_sum / self.down_count if self.down_count else default


class PseudocostBranching(BranchingRule):
    """Product of learned up/down degradations (SCIP-style score)."""

    name = "pseudocost"

    def __init__(self):
        self._entries: Dict[int, _PseudocostEntry] = {}
        self._global_sum = 1.0
        self._global_count = 1

    def _default(self) -> float:
        return self._global_sum / self._global_count

    def select(self, fractional, x, bound, probe=None) -> int:
        if fractional.size == 0:
            raise MIPError("no fractional variable to branch on")
        eps = 1e-6
        best_var, best_score = int(fractional[0]), -np.inf
        default = self._default()
        for var in fractional:
            value = x[var]
            f = value - np.floor(value)
            entry = self._entries.get(int(var), _PseudocostEntry())
            up = entry.estimate("up", default) * (1.0 - f)
            down = entry.estimate("down", default) * f
            score = max(up, eps) * max(down, eps)
            if score > best_score:
                best_var, best_score = int(var), score
        return best_var

    def record(self, var, direction, fractionality, degradation) -> None:
        if fractionality <= 1e-9:
            return
        per_unit = max(0.0, degradation) / fractionality
        entry = self._entries.setdefault(int(var), _PseudocostEntry())
        if direction == "up":
            entry.up_sum += per_unit
            entry.up_count += 1
        elif direction == "down":
            entry.down_sum += per_unit
            entry.down_count += 1
        else:
            raise MIPError(f"unknown branch direction {direction!r}")
        self._global_sum += per_unit
        self._global_count += 1


class StrongBranching(BranchingRule):
    """Probe both children of the top-k fractional candidates.

    Scores a candidate by the product of its children's bound
    degradations (the classic reliability measure); requires the solver
    to supply a ``probe`` callback.
    """

    name = "strong"

    def select(self, fractional, x, bound, probe=None) -> int:
        if fractional.size == 0:
            raise MIPError("no fractional variable to branch on")
        if probe is None:
            # Degrade gracefully to most-fractional when no probe exists.
            return MostFractionalBranching().select(fractional, x, bound)
        frac = x[fractional] - np.floor(x[fractional])
        order = np.argsort(-np.abs(np.abs(frac - 0.5) - 0.5))  # most fractional first
        candidates = fractional[order][:STRONG_CANDIDATES]
        eps = 1e-6
        best_var, best_score = int(candidates[0]), -np.inf
        for var in candidates:
            value = x[var]
            down_obj = probe(int(var), None, float(np.floor(value)))
            up_obj = probe(int(var), float(np.ceil(value)), None)
            down_deg = bound - down_obj
            up_deg = bound - up_obj
            score = max(down_deg, eps) * max(up_deg, eps)
            if score > best_score:
                best_var, best_score = int(var), score
        return best_var


class ReliabilityBranching(BranchingRule):
    """Strong branching until pseudocosts become reliable (SCIP default).

    A variable's pseudocost estimate is *reliable* once it has been
    observed :data:`RELIABILITY` times in each direction; up to
    :data:`STRONG_CANDIDATES` unreliable candidates are strong-branched
    (initializing their pseudocosts),
    reliable ones are scored from history — the standard way to get
    strong branching's small trees at near-pseudocost cost.
    """

    name = "reliability"

    def __init__(self):
        self._pseudo = PseudocostBranching()

    def select(self, fractional, x, bound, probe=None) -> int:
        if fractional.size == 0:
            raise MIPError("no fractional variable to branch on")
        entries = self._pseudo._entries
        unreliable = [
            int(v)
            for v in fractional
            if entries.get(int(v), _PseudocostEntry()).up_count < RELIABILITY
            or entries.get(int(v), _PseudocostEntry()).down_count < RELIABILITY
        ]
        if probe is not None and unreliable:
            frac = x[unreliable] - np.floor(x[unreliable])
            order = np.argsort(np.abs(frac - 0.5))
            for v in np.asarray(unreliable)[order][:STRONG_CANDIDATES]:
                value = x[int(v)]
                f = value - np.floor(value)
                down_obj = probe(int(v), None, float(np.floor(value)))
                up_obj = probe(int(v), float(np.ceil(value)), None)
                if np.isfinite(down_obj):
                    self._pseudo.record(int(v), "down", f, bound - down_obj)
                if np.isfinite(up_obj):
                    self._pseudo.record(int(v), "up", 1.0 - f, bound - up_obj)
        return self._pseudo.select(fractional, x, bound)

    def record(self, var, direction, fractionality, degradation) -> None:
        self._pseudo.record(var, direction, fractionality, degradation)


#: Branching rules by name.
BRANCHING_RULES = {
    "most_fractional": MostFractionalBranching,
    "pseudocost": PseudocostBranching,
    "strong": StrongBranching,
    "reliability": ReliabilityBranching,
}


def make_branching(name: str) -> BranchingRule:
    """Factory for branching rules by name."""
    try:
        return BRANCHING_RULES[name]()
    except KeyError:
        raise ReproError(
            f"unknown branching rule {name!r}; choose from {sorted(BRANCHING_RULES)}"
        ) from None
