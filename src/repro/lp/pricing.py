"""Pricing (entering-variable selection) rules for the revised simplex.

The pricing rule determines how many iterations the simplex needs and
how much linear algebra each iteration costs — one of the DESIGN.md
ablations.  Three rules are provided:

- ``dantzig`` — most-positive reduced cost; cheapest per iteration.
- ``devex`` — Devex reference-framework weights (Harris 1973), a
  practical approximation of steepest edge that needs only the pivot
  column; usually far fewer iterations on hard bases.
- ``bland`` — smallest eligible index; slowest but provably anti-cycling
  (used automatically as a fallback under degeneracy).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ReproError


class PricingRule:
    """Interface: rank the entering candidates by reduced cost."""

    name = "base"

    def reset(self, n: int) -> None:
        """Prepare for a fresh basis (n = total columns)."""

    def order(self, reduced: np.ndarray, eligible: np.ndarray) -> np.ndarray:
        """The eligible columns, best first (empty when there are none).

        ``reduced`` are the reduced costs d (maximization: want d > 0);
        ``eligible`` is a boolean mask of candidate columns.  A bound
        flip leaves the basis and ``d`` as they were, so after one the
        next column of this order is the one a fresh pricing would pick
        (the primal loop's flip runs walk it).
        """
        raise NotImplementedError

    def select(self, reduced: np.ndarray, eligible: np.ndarray) -> Optional[int]:
        """Entering column index (the first of :meth:`order`), or None."""
        ranked = self.order(reduced, eligible)
        return int(ranked[0]) if ranked.size else None

    def update(self, entering: int, leaving: int, w: np.ndarray, pivot_row_coeffs: np.ndarray) -> None:
        """Post-pivot bookkeeping (only Devex needs it)."""


def _descending(score: np.ndarray, eligible: np.ndarray) -> np.ndarray:
    """Eligible indices by ``score`` descending; ties keep index order."""
    idx = np.flatnonzero(eligible)
    return idx[np.argsort(-score[idx], kind="stable")]


class DantzigPricing(PricingRule):
    """Most-positive reduced cost."""

    name = "dantzig"

    def order(self, reduced: np.ndarray, eligible: np.ndarray) -> np.ndarray:
        return _descending(reduced, eligible)


class BlandPricing(PricingRule):
    """Smallest eligible index (anti-cycling)."""

    name = "bland"

    def order(self, reduced: np.ndarray, eligible: np.ndarray) -> np.ndarray:
        return np.flatnonzero(eligible)


class DevexPricing(PricingRule):
    """Devex: reduced cost scaled by an evolving reference weight.

    Weights start at 1; after a pivot on (entering q, leaving row r)
    with pivot column ``w`` and pivot row ``alpha`` (row r of B⁻¹N), a
    column j's weight becomes
    ``max(w_j_old, (alpha_j / alpha_q)² · w_q_old)`` — the standard
    Devex recurrence.
    """

    name = "devex"

    def __init__(self):
        self._weights: Optional[np.ndarray] = None

    def reset(self, n: int) -> None:
        self._weights = np.ones(n)

    def order(self, reduced: np.ndarray, eligible: np.ndarray) -> np.ndarray:
        if self._weights is None or self._weights.shape != reduced.shape:
            self.reset(reduced.shape[0])
        return _descending(reduced * reduced / self._weights, eligible)

    def update(self, entering: int, leaving: int, w: np.ndarray, pivot_row_coeffs: np.ndarray) -> None:
        if self._weights is None:
            return
        alpha_q = pivot_row_coeffs[entering]
        if alpha_q == 0.0:
            return
        ratio = pivot_row_coeffs / alpha_q
        candidate = ratio * ratio * self._weights[entering]
        self._weights = np.maximum(self._weights, candidate)
        # The leaving variable re-enters the nonbasic set with weight
        # derived from the entering column's weight.
        self._weights[entering] = max(
            1.0, self._weights[entering] / (alpha_q * alpha_q)
        )


#: Pricing rules by name.
PRICING_RULES = {
    "dantzig": DantzigPricing,
    "devex": DevexPricing,
    "bland": BlandPricing,
}


def make_pricing(name: str) -> PricingRule:
    """Factory for pricing rules by name."""
    try:
        return PRICING_RULES[name]()
    except KeyError:
        raise ReproError(
            f"unknown pricing rule {name!r}; choose from {sorted(PRICING_RULES)}"
        ) from None
