"""The branch-and-bound tree with Figure 1's node tags.

A node's LP is the root problem plus the variable-bound tightenings
along its ancestor path — exactly the "minor updates such as new bounds
added for a subset of variables" reuse the paper's §5.3 describes.  Two
kinds of tightening ride on a node: the branching ``change`` that
created it, and the ``fixings`` its own LP implied for its subtree
against the incumbent (reduced-cost fixing).  Each node keeps its box
folded once, at creation — the parent's box, then the parent's
fixings, then the branch — so looking a box up never walks the path.
The search then tightens a new child's box through the rows (domain
propagation, :mod:`repro.mip.propagation`) before the child is queued;
those tightenings live in the box alone.  Each node also owns the warm
state its LP left (:class:`~repro.lp.warm.WarmStartState`), the one
record its children re-solve from (§5.3).

Tags follow Figure 1: every node is ``ACTIVE`` while awaiting (or under)
evaluation; evaluation converts it to ``FEASIBLE`` (integral solution),
``INFEASIBLE``, ``PRUNED`` (bound dominated by the incumbent) or
``BRANCHED`` (interior node with children).  At completion of the search
no node may remain ``ACTIVE`` — asserted by
:func:`repro.mip.snapshot.assert_search_complete`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import MIPError
from repro.lp.problem import LinearProgram
from repro.lp.warm import WarmStartState


class NodeTag(enum.Enum):
    """Life-cycle tag of a branch-and-bound node (paper Figure 1)."""

    ACTIVE = "active"
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    PRUNED = "pruned"
    BRANCHED = "branched"


@dataclass
class BoundChange:
    """One variable bound tightening: a branch, or an implied fixing."""

    var: int
    #: "lb" or "ub".
    kind: str
    value: float
    #: The variable's (fractional) LP value at the parent, for pseudocosts.
    parent_value: float = 0.0


@dataclass
class BBNode:
    """One node of the tree."""

    node_id: int
    parent_id: Optional[int]
    depth: int
    #: The bound change that created this node (None for the root).
    change: Optional[BoundChange]
    tag: NodeTag = NodeTag.ACTIVE
    #: LP relaxation bound once evaluated (maximization upper bound).
    lp_bound: float = np.inf
    #: Variable branched on at this node (set when BRANCHED).
    branch_var: Optional[int] = None
    children: List[int] = field(default_factory=list)
    #: The state this node's (pre-cut) LP left: what its children
    #: warm-start from, and (its basis alone) its strong-branching
    #: probes.  The node owns it; the driver demotes it to the basis
    #: alone once it is no longer among the most recently used.
    warm: Optional[WarmStartState] = None
    #: Parent's LP bound, inherited at creation (pre-evaluation prune key).
    inherited_bound: float = np.inf
    #: Tightenings this node's LP implies for its subtree against the
    #: incumbent (not the LP alone): every child's box carries them.
    fixings: List[BoundChange] = field(default_factory=list)
    #: The node's box, ``(lb, ub)``, read-only (children share arrays):
    #: folded at creation, then propagated through the rows.
    box: Optional[Tuple[np.ndarray, np.ndarray]] = None


class BBTree:
    """Container and bookkeeping for the branch-and-bound tree."""

    def __init__(self, root_problem: LinearProgram):
        self._root_problem = root_problem
        self._nodes: Dict[int, BBNode] = {}
        self._next_id = 0
        root = BBNode(node_id=self._alloc_id(), parent_id=None, depth=0, change=None)
        root.box = _fold(root_problem.lb.copy(), root_problem.ub.copy(), [])
        self._nodes[root.node_id] = root

    def _alloc_id(self) -> int:
        nid = self._next_id
        self._next_id += 1
        return nid

    @property
    def root(self) -> BBNode:
        """The root node."""
        return self._nodes[0]

    @property
    def size(self) -> int:
        """Total nodes ever created."""
        return len(self._nodes)

    def node(self, node_id: int) -> BBNode:
        """Look up a node by id."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise MIPError(f"unknown node id {node_id}") from None

    def nodes(self) -> Iterator[BBNode]:
        """All nodes in creation order."""
        return iter(self._nodes.values())

    def add_child(self, parent_id: int, change: BoundChange) -> BBNode:
        """Create an ACTIVE child under ``parent_id``."""
        parent = self.node(parent_id)
        child = BBNode(
            node_id=self._alloc_id(),
            parent_id=parent_id,
            depth=parent.depth + 1,
            change=change,
        )
        child.box = _fold(*parent.box, parent.fixings + [change])
        self._nodes[child.node_id] = child
        parent.children.append(child.node_id)
        return child

    def node_bounds(self, node_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """Effective (lb, ub) at a node (read-only arrays)."""
        return self.node(node_id).box

    def node_problem(self, node_id: int) -> LinearProgram:
        """The node's LP relaxation (root problem + path bounds)."""
        return self._root_problem.with_bound_vectors(*self.node_bounds(node_id))

    def tree_distance(self, a: int, b: int) -> int:
        """Edges between two nodes (matrix-reuse locality metric, §5.3)."""
        ancestors_a = {}
        node, dist = self.node(a), 0
        while True:
            ancestors_a[node.node_id] = dist
            if node.parent_id is None:
                break
            node, dist = self.node(node.parent_id), dist + 1
        node, dist = self.node(b), 0
        while node.node_id not in ancestors_a:
            node, dist = self.node(node.parent_id), dist + 1
        return dist + ancestors_a[node.node_id]

    def active_leaves(self) -> List[BBNode]:
        """All nodes still tagged ACTIVE."""
        return [n for n in self._nodes.values() if n.tag is NodeTag.ACTIVE]

    def tag_counts(self) -> Dict[NodeTag, int]:
        """Histogram of node tags."""
        counts = {tag: 0 for tag in NodeTag}
        for node in self._nodes.values():
            counts[node.tag] += 1
        return counts

    def render(self, max_depth: int = 6) -> str:
        """ASCII rendering of the tree (Figure 1 regeneration)."""
        lines: List[str] = []

        def visit(node_id: int, prefix: str, is_last: bool) -> None:
            node = self.node(node_id)
            if node.depth > max_depth:
                return
            connector = "" if node.parent_id is None else ("└─ " if is_last else "├─ ")
            desc = node.tag.value
            if node.tag is NodeTag.BRANCHED and node.branch_var is not None:
                desc += f" on x{node.branch_var}"
            bound = "" if not np.isfinite(node.lp_bound) else f" bound={node.lp_bound:.4g}"
            change = ""
            if node.change is not None:
                op = "≥" if node.change.kind == "lb" else "≤"
                change = f" [x{node.change.var} {op} {node.change.value:g}]"
            lines.append(f"{prefix}{connector}n{node.node_id}{change}: {desc}{bound}")
            child_prefix = prefix + ("" if node.parent_id is None else ("   " if is_last else "│  "))
            for i, child in enumerate(node.children):
                visit(child, child_prefix, i == len(node.children) - 1)

        visit(0, "", True)
        return "\n".join(lines)


def _fold(
    lb: np.ndarray, ub: np.ndarray, changes: List[BoundChange]
) -> Tuple[np.ndarray, np.ndarray]:
    """``(lb, ub)`` under ``changes``, as read-only arrays.

    A side no change touches is shared, not copied: boxes are never
    written after this, so a node's arrays may also be its children's.
    """
    lb_out, ub_out = lb, ub
    for change in changes:
        if change.kind == "lb":
            if lb_out is lb:
                lb_out = lb.copy()
            lb_out[change.var] = max(lb_out[change.var], change.value)
        elif change.kind == "ub":
            if ub_out is ub:
                ub_out = ub.copy()
            ub_out[change.var] = min(ub_out[change.var], change.value)
        else:
            raise MIPError(f"unknown bound kind {change.kind!r}")
    lb_out.flags.writeable = False
    ub_out.flags.writeable = False
    return lb_out, ub_out
