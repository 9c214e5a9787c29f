"""Integer-Vector-Matrix (IVM) branch-and-bound for permutation problems.

Paper §2.3: "Gmys et al. presented a pure GPU implementation of
branch-and-bound … The key principle of their approach is the use of an
Integer Vector Matrix (IVM) representation of the branch-and-bound
problem tree rather than the linked list used in previous
implementations.  The IVM representation is well-suited for the GPU
programming due to its memory structure."

For an N-element permutation tree, IVM is:

- **Integer** — the current depth ``d``;
- **Vector** — position vector ``I`` (which child is selected per row);
- **Matrix** — N×N job matrix ``M`` whose row ``d`` lists the jobs still
  available at depth ``d``.

The whole DFS state is a *flat, constant-size* block of (N² + N + 1)
integers — no pointers, no allocation — which is why it maps onto GPU
memory so well.  Depth-first traversal works like an odometer:
``descend`` expands the selected cell, ``advance`` moves to the next
sibling, carrying upward when a row is exhausted.

Both the IVM engine and a conventional linked-node engine are provided
with identical bounding interfaces, so experiment E11 can verify equal
search results while comparing memory footprints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import MIPError

#: Lower bound for the sub-problem rooted at a prefix (minimization);
#: called as bound_fn(prefix) where prefix is a tuple of selected items.
BoundFn = Callable[[Sequence[int]], float]
#: Exact cost of a complete permutation.
LeafFn = Callable[[Sequence[int]], float]

#: Nodes either search may expand before it stops.
NODE_LIMIT = 50_000_000


class IVM:
    """Flat IVM state for an N-element permutation tree."""

    def __init__(self, n: int):
        if n < 1:
            raise MIPError(f"IVM needs n >= 1, got {n}")
        self.n = n
        #: Current depth (the paper's Integer).
        self.depth = 0
        #: Position vector (the paper's Vector).
        self.position = np.zeros(n, dtype=np.int64)
        #: Job matrix (the paper's Matrix); row d has n-d valid entries.
        self.matrix = np.zeros((n, n), dtype=np.int64)
        self.matrix[0] = np.arange(n)
        self._exhausted = False

    @property
    def exhausted(self) -> bool:
        """True when the DFS has visited every unpruned leaf."""
        return self._exhausted

    def memory_bytes(self) -> int:
        """Footprint of the flat state (the E11 metric)."""
        return self.matrix.nbytes + self.position.nbytes + 8

    def row_length(self, depth: int) -> int:
        """Valid entries in the matrix row at ``depth``."""
        return self.n - depth

    def prefix(self) -> Tuple[int, ...]:
        """Selected items along the current path, including this depth."""
        return tuple(
            int(self.matrix[d, self.position[d]]) for d in range(self.depth + 1)
        )

    @property
    def at_leaf_row(self) -> bool:
        """True when the current row is the last (a full permutation)."""
        return self.depth == self.n - 1

    def descend(self) -> None:
        """Expand the selected cell: build the next row minus that item."""
        if self.at_leaf_row:
            raise MIPError("descend called on a leaf row")
        d = self.depth
        selected = self.position[d]
        row = self.matrix[d, : self.n - d]
        nxt = np.concatenate([row[:selected], row[selected + 1 :]])
        self.matrix[d + 1, : nxt.size] = nxt
        self.depth = d + 1
        self.position[d + 1] = 0

    def advance(self) -> None:
        """Move to the next sibling, carrying up when rows exhaust."""
        while True:
            self.position[self.depth] += 1
            if self.position[self.depth] < self.row_length(self.depth):
                return
            if self.depth == 0:
                self._exhausted = True
                return
            self.depth -= 1


@dataclass
class PermutationBBResult:
    """Outcome of a permutation branch-and-bound (minimization)."""

    best_cost: float
    best_permutation: Optional[Tuple[int, ...]]
    nodes_explored: int
    leaves_evaluated: int
    pruned: int
    #: Peak bytes used by the tree representation.
    tree_memory_bytes: int


def ivm_branch_and_bound(
    n: int,
    bound_fn: BoundFn,
    leaf_fn: LeafFn,
) -> PermutationBBResult:
    """Depth-first permutation B&B over the flat IVM state."""
    ivm = IVM(n)
    best_cost = np.inf
    best_perm: Optional[Tuple[int, ...]] = None
    nodes = leaves = pruned = 0

    while not ivm.exhausted and nodes < NODE_LIMIT:
        nodes += 1
        prefix = ivm.prefix()
        if ivm.at_leaf_row:
            leaves += 1
            cost = leaf_fn(prefix)
            if cost < best_cost:
                best_cost = cost
                best_perm = prefix
            ivm.advance()
            continue
        if bound_fn(prefix) >= best_cost:
            pruned += 1
            ivm.advance()
            continue
        ivm.descend()

    return PermutationBBResult(
        best_cost=best_cost,
        best_permutation=best_perm,
        nodes_explored=nodes,
        leaves_evaluated=leaves,
        pruned=pruned,
        tree_memory_bytes=ivm.memory_bytes(),
    )


@dataclass
class _LinkedNode:
    """Conventional pointer-based tree node (the IVM comparison point)."""

    prefix: Tuple[int, ...]
    remaining: Tuple[int, ...]

    def nbytes(self) -> int:
        # Object header + two tuples of ints: the pointer-chasing layout
        # whose footprint and irregularity IVM eliminates.
        return 56 + 8 * (len(self.prefix) + len(self.remaining)) + 112


def linked_list_branch_and_bound(
    n: int,
    bound_fn: BoundFn,
    leaf_fn: LeafFn,
) -> PermutationBBResult:
    """The same DFS with an explicit linked-node stack."""
    root = _LinkedNode(prefix=(), remaining=tuple(range(n)))
    stack: List[_LinkedNode] = [
        _LinkedNode(prefix=(item,), remaining=tuple(x for x in root.remaining if x != item))
        for item in reversed(root.remaining)
    ]
    best_cost = np.inf
    best_perm: Optional[Tuple[int, ...]] = None
    nodes = leaves = pruned = 0
    peak_bytes = sum(node.nbytes() for node in stack)

    while stack and nodes < NODE_LIMIT:
        node = stack.pop()
        nodes += 1
        if not node.remaining:
            leaves += 1
            cost = leaf_fn(node.prefix)
            if cost < best_cost:
                best_cost = cost
                best_perm = node.prefix
            continue
        if bound_fn(node.prefix) >= best_cost:
            pruned += 1
            continue
        for item in reversed(node.remaining):
            stack.append(
                _LinkedNode(
                    prefix=node.prefix + (item,),
                    remaining=tuple(x for x in node.remaining if x != item),
                )
            )
        peak_bytes = max(peak_bytes, sum(nd.nbytes() for nd in stack))

    return PermutationBBResult(
        best_cost=best_cost,
        best_permutation=best_perm,
        nodes_explored=nodes,
        leaves_evaluated=leaves,
        pruned=pruned,
        tree_memory_bytes=peak_bytes,
    )
