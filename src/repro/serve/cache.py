"""LRU result cache keyed by canonical problem fingerprints.

Duplicate solve requests are the cheapest traffic a service can carry:
the §5.5 regime (huge numbers of small independent problems) is exactly
where request streams repeat themselves.  The cache stores the
:class:`SolveResponse` of every completed *primary* solve; a later
identical request is answered from the cache without ever reaching the
batching queue or the device.

A stored response carries the simulated time its solve completed: a
duplicate arriving *before* its twin's batch has finished must wait for
that result, so a cache hit (:meth:`SolveResponse.replay_for`) completes
at ``max(arrival, completion) + lookup cost`` — no time travel.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.errors import ServiceError
from repro.serve.request import SolveResponse

#: Simulated cost of one fingerprint lookup (hash + host map probe).
CACHE_LOOKUP_SECONDS = 1e-6


class ResultCache:
    """Bounded LRU map ``fingerprint → SolveResponse`` (the answer it replays)."""

    def __init__(self, capacity: int = 1024):
        if capacity < 0:
            raise ServiceError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[str, SolveResponse]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        # Pure membership probe: does not count as a hit or refresh LRU.
        return key in self._entries

    def get(self, key: str) -> Optional[SolveResponse]:
        """Look up a fingerprint; counts the hit/miss and refreshes LRU."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: str, entry: SolveResponse) -> None:
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
