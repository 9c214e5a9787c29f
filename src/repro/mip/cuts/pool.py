"""Cut pool: dedupe, rank by violation, cap per round."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np


@dataclass
class Cut:
    """One valid inequality ``row · x ≤ rhs`` in standard-form space."""

    row: np.ndarray
    rhs: float
    #: Violation at the generating LP solution (≥ 0 for useful cuts).
    violation: float
    source: str = "unknown"

    def normalized_key(self) -> Tuple:
        """Hashable key invariant to positive scaling (dedupe)."""
        norm = np.linalg.norm(self.row)
        if norm == 0:
            return ("zero",)
        row = self.row / norm
        rhs = self.rhs / norm
        return (round(rhs, 9),) + tuple(np.round(row, 9))


#: Cuts a pool holds; later candidates are refused.
MAX_POOL = 1000


class CutPool:
    """Collects candidate cuts, dedupes, and selects the best ones."""

    def __init__(self):
        self._cuts: List[Cut] = []
        self._seen: set = set()

    def add(self, cut: Cut) -> bool:
        """Add a cut unless it's a duplicate; returns True when kept."""
        if len(self._cuts) >= MAX_POOL:
            return False
        key = cut.normalized_key()
        if key in self._seen:
            return False
        self._seen.add(key)
        self._cuts.append(cut)
        return True

    def select(self, count: int, min_violation: float = 1e-6) -> List[Cut]:
        """Pop the ``count`` most violated cuts above the threshold."""
        eligible = [c for c in self._cuts if c.violation >= min_violation]
        eligible.sort(key=lambda c: -c.violation)
        chosen = eligible[:count]
        chosen_ids = {id(c) for c in chosen}
        self._cuts = [c for c in self._cuts if id(c) not in chosen_ids]
        return chosen

    def __len__(self) -> int:
        return len(self._cuts)
