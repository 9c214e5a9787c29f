"""LRU result cache keyed by canonical problem fingerprints.

Duplicate solve requests are the cheapest traffic a service can carry:
the §5.5 regime (huge numbers of small independent problems) is exactly
where request streams repeat themselves.  The cache stores the solver
outcome of every completed *primary* solve; a later identical request is
answered from the cache without ever reaching the batching queue or the
device.

Entries carry the simulated time their producing solve completed
(``ready_time``): a duplicate arriving *before* its twin's batch has
finished must wait for that result, so a cache hit's completion time is
``max(arrival, ready_time) + lookup cost`` — no time travel.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ServiceError
from repro.serve.request import Outcome, SolveRequest, SolveResponse

#: Simulated cost of one fingerprint lookup (hash + host map probe).
CACHE_LOOKUP_SECONDS = 1e-6


@dataclass
class CacheEntry:
    """Stored outcome of one completed solve."""

    outcome: Outcome
    solver_status: str
    objective: float
    x: Optional[np.ndarray]
    #: Simulated time the producing solve completed.
    ready_time: float
    #: Certified dual bound (heuristic answers replay their gap).
    best_bound: float = float("inf")
    #: Relative optimality gap at completion.
    gap: float = float("inf")
    #: Solve mode that produced this entry (see :mod:`repro.api`).
    mode: str = "exact"

    @classmethod
    def from_response(cls, response: SolveResponse) -> "CacheEntry":
        """What a completed solve (or parametric answer) leaves to replay."""
        return cls(
            outcome=response.outcome,
            solver_status=response.solver_status,
            objective=response.objective,
            x=response.x,
            ready_time=response.completion_time,
            best_bound=response.best_bound,
            gap=response.gap,
            mode=response.mode,
        )

    def hit(self, request: SolveRequest, lookup_seconds: float) -> SolveResponse:
        """The cache-hit answer to ``request`` (waits for ``ready_time``)."""
        at = request.arrival_time
        return SolveResponse(
            request_id=request.request_id,
            fingerprint=request.fingerprint,
            outcome=self.outcome,
            solver_status=self.solver_status,
            objective=self.objective,
            x=self.x,
            best_bound=self.best_bound,
            gap=self.gap,
            mode=self.mode,
            arrival_time=at,
            dispatch_time=at,
            start_time=at,
            completion_time=max(at, self.ready_time) + lookup_seconds,
            cached=True,
            trace_id=request.trace_id,
        )


class ResultCache:
    """Bounded LRU map ``fingerprint → CacheEntry``."""

    def __init__(self, capacity: int = 1024):
        if capacity < 0:
            raise ServiceError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        # Pure membership probe: does not count as a hit or refresh LRU.
        return key in self._entries

    def get(self, key: str) -> Optional[CacheEntry]:
        """Look up a fingerprint; counts the hit/miss and refreshes LRU."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: str, entry: CacheEntry) -> None:
        """Insert or refresh an entry, evicting the LRU tail if needed."""
        if self.capacity == 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = entry
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def discard(self, key: str) -> bool:
        """Drop one entry (invalidation); True when it was present."""
        return self._entries.pop(key, None) is not None

    @property
    def hit_rate(self) -> float:
        """Hits / lookups (0.0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
