"""Routing policies for the sharded cluster tier.

One front door, N independent :class:`repro.serve.SolveService` worker
groups: the router decides which group owns a request.  Two policies:

- **consistent hash** — a fixed-point hash ring over the live groups
  (``VNODES`` virtual nodes each) keyed by the request's placement key
  (:attr:`repro.serve.request.SolveRequest.placement_key`: the
  *structure* fingerprint for LPs, the full content fingerprint for
  MIPs).  Structure-keyed
  placement means near-duplicate LPs — the ``serve.parametric``
  warm/range traffic — keep landing on the shard that holds the warm
  basis, and exact duplicates keep landing on the shard whose result
  cache already has the answer.  Group join/leave moves only the keys
  whose owning arc changed (~K/N of them), never reshuffles the rest;
- **least loaded** — pick the live group with the smallest load (queue
  depth + in-flight), deterministic ties on group id.  Used standalone
  (``router="least_loaded"``) or as the overflow fallback when the
  hash-designated owner is saturated or draining.

Both policies are pure functions of (key, live group set, load map), so
routing is deterministic and replayable — a property the hypothesis
suite in ``tests/cluster/test_router_properties.py`` pins down.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
from typing import Callable, Dict, List, Optional

from repro.errors import ServiceError

#: Virtual nodes per group on the hash ring.  More vnodes → tighter
#: balance (max/mean shard load) at the cost of a bigger ring; 64 keeps
#: max/mean comfortably under 2 for realistic key counts.
VNODES = 64


@functools.lru_cache(maxsize=4096)
def _ring_position(token: str) -> int:
    """Stable 64-bit position of a token on the ring.

    A pure function of the token, so it is hashed once per distinct
    token: a replayed request's key lands where it landed before.
    """
    digest = hashlib.sha256(token.encode()).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """A consistent-hash ring over integer group ids.

    Each group contributes :data:`VNODES` points at positions derived
    only from ``(group id, vnode index)`` — independent of join order —
    so the same live set always produces the identical ring, and a
    join/leave perturbs only the arcs adjacent to the touched points.
    """

    def __init__(self):
        self._points: List[int] = []
        self._owners: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(set(self._owners.values()))

    @property
    def groups(self) -> List[int]:
        """Live group ids, sorted."""
        return sorted(set(self._owners.values()))

    def join(self, gid: int) -> None:
        """Add a group's virtual nodes to the ring (idempotent)."""
        for v in range(VNODES):
            pos = _ring_position(f"group:{gid}:vnode:{v}")
            if pos in self._owners:
                # A 64-bit collision between distinct groups is ~2^-32
                # per pair; deterministic tie-break keeps replays stable.
                if self._owners[pos] <= gid:
                    continue
            else:
                bisect.insort(self._points, pos)
            self._owners[pos] = gid

    def leave(self, gid: int) -> None:
        """Remove a group's virtual nodes (idempotent)."""
        dead = [pos for pos, owner in self._owners.items() if owner == gid]
        for pos in dead:
            del self._owners[pos]
            idx = bisect.bisect_left(self._points, pos)
            if idx < len(self._points) and self._points[idx] == pos:
                del self._points[idx]

    def owner(self, key: str) -> int:
        """The group owning ``key``: first ring point clockwise of it."""
        if not self._points:
            raise ServiceError("hash ring is empty: no live groups")
        pos = _ring_position(f"key:{key}")
        idx = bisect.bisect_right(self._points, pos)
        if idx == len(self._points):
            idx = 0
        return self._owners[self._points[idx]]


class ConsistentHashRouter:
    """Structure-fingerprint consistent hashing with saturation spill.

    ``route`` returns the hash-designated owner unless ``overloaded``
    says that group cannot take the request, in which case it falls
    back to the least-loaded live group (the CHAP-style host tier keeps
    shards saturated instead of queueing behind one hot shard).
    """

    name = "hash"

    def __init__(self):
        self.ring = HashRing()
        self.spills = 0

    @property
    def groups(self) -> List[int]:
        return self.ring.groups

    def join(self, gid: int) -> None:
        self.ring.join(gid)

    def leave(self, gid: int) -> None:
        self.ring.leave(gid)

    def route(
        self,
        key: str,
        load: Callable[[int], float],
        overloaded: Optional[Callable[[int], bool]] = None,
    ) -> int:
        owner = self.ring.owner(key)
        if overloaded is not None and overloaded(owner):
            candidates = [
                g for g in self.ring.groups if not overloaded(g)
            ] or self.ring.groups
            target = min(candidates, key=lambda g: (load(g), g))
            if target != owner:
                self.spills += 1
            return target
        return owner


class LeastLoadedRouter:
    """Pure least-loaded placement (no locality, perfect spread)."""

    name = "least_loaded"

    def __init__(self):
        self._groups: List[int] = []

    @property
    def groups(self) -> List[int]:
        return sorted(self._groups)

    def join(self, gid: int) -> None:
        if gid not in self._groups:
            self._groups.append(gid)

    def leave(self, gid: int) -> None:
        if gid in self._groups:
            self._groups.remove(gid)

    def route(
        self,
        key: str,
        load: Callable[[int], float],
        overloaded: Optional[Callable[[int], bool]] = None,
    ) -> int:
        if not self._groups:
            raise ServiceError("least-loaded router has no live groups")
        candidates = self.groups
        if overloaded is not None:
            open_groups = [g for g in candidates if not overloaded(g)]
            if open_groups:
                candidates = open_groups
        return min(candidates, key=lambda g: (load(g), g))


def make_router(policy: str):
    """Router factory: ``"hash"`` or ``"least_loaded"``."""
    if policy == "hash":
        return ConsistentHashRouter()
    if policy == "least_loaded":
        return LeastLoadedRouter()
    raise ServiceError(
        f"unknown routing policy {policy!r}; choose 'hash' or 'least_loaded'"
    )
