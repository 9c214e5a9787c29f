"""Shared result-cache tier over the shards' own caches.

The single-pool service already dedups within its own shard
(:class:`repro.serve.cache.ResultCache`).  At cluster scale two new
cases appear: a request spilled to a non-owner shard (least-loaded
fallback), and a request re-routed after a group kill — both would
re-solve a problem some *other* shard already answered.  The cluster
cache tier closes that hole:

- the **owner tier** is one logical fingerprint → response map (the
  "shared" cache a real deployment would back with a k/v store);
- each shard's **replica** is its group's own exact
  :class:`repro.serve.cache.ResultCache`, registered by
  :meth:`attach_shard` — one LRU per shard, not a second copy beside
  it.  A replica hit is a local host lookup, but only for an answer
  that already exists when the request arrives (an answer still in
  flight is a miss, and the request is forwarded to its group); an
  owner-tier hit pays one simulated network round trip
  (:class:`repro.comm.network.NetworkSpec`) and then populates the
  shard's replica;
- **invalidation is fingerprint-keyed**: :meth:`invalidate` removes one
  fingerprint everywhere (owner + every replica), and
  :meth:`drop_replica` forgets a whole shard when the group is killed
  or drained — a dead shard must never satisfy a later lookup.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.comm.network import NetworkSpec, SHARED_MEMORY
from repro.serve.cache import CACHE_LOOKUP_SECONDS, ResultCache
from repro.serve.request import SolveResponse

#: Structural size estimate of one cached answer crossing the network
#: (status + objective + a small solution vector envelope).
ENTRY_WIRE_BYTES = 512


class ClusterCache:
    """Owner tier + each shard's own LRU, fingerprint invalidation."""

    def __init__(self, capacity: int = 4096, network: NetworkSpec = SHARED_MEMORY):
        self.network = network
        self._owner = ResultCache(capacity)
        #: shard → that shard's group's own exact result cache.
        self._replicas: Dict[int, ResultCache] = {}
        self.local_hits = 0
        self.remote_hits = 0
        self.misses = 0
        self.invalidations = 0
        self.replica_drops = 0

    def __len__(self) -> int:
        return len(self._owner)

    def attach_shard(self, shard: int, store: ResultCache) -> None:
        """Register ``store`` (the group's own cache) as ``shard``'s replica."""
        self._replicas[shard] = store

    def replica_len(self, shard: int) -> int:
        """Entries currently replicated at ``shard``."""
        return len(self._replicas.get(shard, ()))

    # -- lookup / insert ---------------------------------------------------------

    def lookup(
        self, fingerprint: str, shard: int, at: float
    ) -> Tuple[Optional[SolveResponse], float]:
        """Probe ``shard``'s replica, then the owner tier, at time ``at``.

        Returns ``(stored response, simulated seconds)``: a local
        replica hit costs one lookup; an owner-tier hit adds a
        request/response network round trip and replicates the answer
        locally; a miss costs the local probe only (the owner probe
        rides the solve dispatch the caller is about to do anyway).  A
        replica answer that completes after ``at`` does not exist yet
        at the front door, so it does not count as a hit.
        """
        replica = self._replicas[shard]
        entry = replica.get(fingerprint)
        if entry is not None and entry.completion_time <= at:
            self.local_hits += 1
            return entry, CACHE_LOOKUP_SECONDS
        entry = self._owner.get(fingerprint)
        if entry is not None:
            self.remote_hits += 1
            cost = CACHE_LOOKUP_SECONDS + self.network.message_time(
                64
            ) + self.network.message_time(ENTRY_WIRE_BYTES)
            replica.put(fingerprint, entry)
            return entry, cost
        self.misses += 1
        return None, CACHE_LOOKUP_SECONDS

    def insert(self, fingerprint: str, response: SolveResponse) -> None:
        """Write the owner tier (the producing group already holds it)."""
        self._owner.put(fingerprint, response)

    # -- invalidation ------------------------------------------------------------

    def invalidate(self, fingerprint: str) -> int:
        """Remove one fingerprint from the owner tier and every replica.

        Returns how many stores held it (0 when it was unknown).
        """
        stores = [self._owner, *self._replicas.values()]
        removed = sum(store.discard(fingerprint) for store in stores)
        if removed:
            self.invalidations += 1
        return removed

    def drop_replica(self, shard: int) -> int:
        """Forget a shard's replica (group killed or drained).

        The owner tier keeps the entries — the *answers* are still
        valid; only the dead shard's copies must never answer again.
        Returns the number of entries the shard held.
        """
        replica = self._replicas.pop(shard, None)
        if replica is None:
            return 0
        self.replica_drops += 1
        return len(replica)

    # -- introspection -----------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        """(local + remote hits) / lookups, 0.0 before any lookup."""
        total = self.local_hits + self.remote_hits + self.misses
        return (self.local_hits + self.remote_hits) / total if total else 0.0

    def stats(self) -> Dict:
        return {
            "entries": len(self._owner),
            "local_hits": self.local_hits,
            "remote_hits": self.remote_hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "invalidations": self.invalidations,
            "replica_drops": self.replica_drops,
            "replicas": {
                shard: len(replica)
                for shard, replica in sorted(self._replicas.items())
            },
        }
