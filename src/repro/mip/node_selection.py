"""Node selection (evaluation-order) policies.

Paper §5.3: because host↔device transfers of the (potentially large)
matrix dominate, "a GPU-based parallel MIP solver must strive to reuse
the matrix on the GPU across as many branch-and-cut nodes as possible.
This may warrant the use of a GPU-specific scheduling policy that picks
the next node to evaluate."  The policies below are the E6 sweep:

- ``best_first`` — classic best-bound; minimizes evaluated nodes but
  jumps arbitrarily around the tree (worst matrix locality).
- ``depth_first`` — LIFO plunging; maximal locality, can bloat the tree.
- ``hybrid`` — best-bound with a depth bonus (diving tie-break).
- ``gpu_locality`` — prefer a child of the just-evaluated node (the
  resident matrix needs only a bound-row RHS tweak), then any node whose
  tree distance is within a window, then fall back to best bound.
"""

from __future__ import annotations

import heapq
import itertools
from typing import List, Optional, Tuple

from repro.errors import MIPError, ReproError
from repro.mip.tree import BBTree

#: Bound bonus per level of depth in the hybrid selector's key.
DEPTH_BONUS = 1e-4
#: Tree distance within which the locality selector prefers the nearest node.
LOCALITY_WINDOW = 3


class NodeSelector:
    """Interface: a pool of open node ids with a policy-defined pop."""

    name = "base"

    def __init__(self, tree: BBTree):
        self._tree = tree

    def push(self, node_id: int, bound: float) -> None:
        """Add an open node with its parent-inherited bound."""
        raise NotImplementedError

    def pop(self) -> int:
        """Select and remove the next node to evaluate."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __bool__(self) -> bool:
        return len(self) > 0


class BestFirstSelector(NodeSelector):
    """Highest LP bound first (maximization best-bound search)."""

    name = "best_first"

    def __init__(self, tree: BBTree):
        super().__init__(tree)
        self._heap: List[Tuple[float, int, int]] = []
        self._counter = itertools.count()

    def push(self, node_id: int, bound: float) -> None:
        heapq.heappush(self._heap, (-bound, next(self._counter), node_id))

    def pop(self) -> int:
        if not self._heap:
            raise MIPError("pop from empty node pool")
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)


class DepthFirstSelector(NodeSelector):
    """LIFO stack (plunge down the most recent branch)."""

    name = "depth_first"

    def __init__(self, tree: BBTree):
        super().__init__(tree)
        self._stack: List[int] = []

    def push(self, node_id: int, bound: float) -> None:
        self._stack.append(node_id)

    def pop(self) -> int:
        if not self._stack:
            raise MIPError("pop from empty node pool")
        return self._stack.pop()

    def __len__(self) -> int:
        return len(self._stack)


class HybridSelector(NodeSelector):
    """Best bound with a small depth bonus (mild plunging)."""

    name = "hybrid"

    def __init__(self, tree: BBTree):
        super().__init__(tree)
        self._heap: List[Tuple[float, int, int]] = []
        self._counter = itertools.count()

    def push(self, node_id: int, bound: float) -> None:
        depth = self._tree.node(node_id).depth
        key = -(bound + DEPTH_BONUS * depth)
        heapq.heappush(self._heap, (key, next(self._counter), node_id))

    def pop(self) -> int:
        if not self._heap:
            raise MIPError("pop from empty node pool")
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)


class GpuLocalitySelector(NodeSelector):
    """Matrix-reuse-aware ordering (§5.3).

    Children of the last evaluated node are preferred outright; failing
    that, the open node nearest (in tree distance) to the last node is
    chosen if within :data:`LOCALITY_WINDOW`; otherwise best bound.
    """

    name = "gpu_locality"

    def __init__(self, tree: BBTree):
        super().__init__(tree)
        self._open: List[Tuple[float, int]] = []  # (bound, node_id)
        self._last: Optional[int] = None

    def push(self, node_id: int, bound: float) -> None:
        self._open.append((bound, node_id))

    def pop(self) -> int:
        if not self._open:
            raise MIPError("pop from empty node pool")
        pick = None
        if self._last is not None:
            # 1. A child of the last node, if open.
            last_children = set(self._tree.node(self._last).children)
            for i, (_, nid) in enumerate(self._open):
                if nid in last_children:
                    pick = i
                    break
            # 2. Nearest open node within the locality window.
            if pick is None:
                best_dist = LOCALITY_WINDOW + 1
                for i, (_, nid) in enumerate(self._open):
                    dist = self._tree.tree_distance(self._last, nid)
                    if dist < best_dist:
                        best_dist, pick = dist, i
        if pick is None:
            # 3. Fall back to best bound.
            pick = max(range(len(self._open)), key=lambda i: self._open[i][0])
        _, node_id = self._open.pop(pick)
        self._last = node_id
        return node_id

    def __len__(self) -> int:
        return len(self._open)


#: Node selectors by name.
SELECTORS = {
    "best_first": BestFirstSelector,
    "depth_first": DepthFirstSelector,
    "hybrid": HybridSelector,
    "gpu_locality": GpuLocalitySelector,
}


def make_selector(name: str, tree: BBTree) -> NodeSelector:
    """Factory for node selectors by name."""
    try:
        return SELECTORS[name](tree)
    except KeyError:
        raise ReproError(
            f"unknown node selector {name!r}; choose from {sorted(SELECTORS)}"
        ) from None
