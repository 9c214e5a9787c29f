"""Consistent snapshots of a branch-and-bound search (paper §2.1).

"A consistent snapshot of the branch-and-bound tree is defined as the
set of leaves that preserves the optimal solution to the problem."  In
a sequential search that set is simply the active leaves at any moment
between node evaluations; this module captures it, serializes it, and
resumes the search from it — the checkpoint/restart facility UG provides
(§2.3) and experiment E9 measures.

A distributed search's checkpoints are the same type: the supervisor's
queued ∪ outstanding task set (:mod:`repro.comm.supervisor`) is a set
of leaf boxes, which :func:`repro.strategies.distributed.solve_distributed`
hands out as :class:`SearchSnapshot`\\ s carrying the incumbent's value
but no point.  Every snapshot obeys one invariant: *restarting from it
reproduces the original optimum*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import MIPError
from repro.mip.problem import MIPProblem
from repro.mip.result import MIPResult
from repro.mip.tree import BBTree


@dataclass
class SearchSnapshot:
    """A consistent snapshot: per-leaf bound boxes plus the incumbent."""

    #: (lb, ub) pairs, one per active leaf.
    leaves: List[Tuple[np.ndarray, np.ndarray]]
    incumbent_objective: float = -np.inf
    incumbent_x: Optional[np.ndarray] = None

    @property
    def num_leaves(self) -> int:
        """Open leaves captured."""
        return len(self.leaves)

    def to_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Stack the leaf boxes into (k, n) arrays for serialization."""
        if not self.leaves:
            n = 0 if self.incumbent_x is None else self.incumbent_x.shape[0]
            return np.zeros((0, n)), np.zeros((0, n))
        lbs = np.vstack([lb for lb, _ in self.leaves])
        ubs = np.vstack([ub for _, ub in self.leaves])
        return lbs, ubs


def capture_snapshot(
    tree: BBTree,
    incumbent_objective: float = -np.inf,
    incumbent_x: Optional[np.ndarray] = None,
) -> SearchSnapshot:
    """Capture the consistent snapshot of a (paused) search tree."""
    leaves = [
        (lb.copy(), ub.copy())
        for lb, ub in (tree.node_bounds(node.node_id) for node in tree.active_leaves())
    ]
    return SearchSnapshot(
        leaves=leaves,
        incumbent_objective=incumbent_objective,
        incumbent_x=incumbent_x,
    )


def assert_search_complete(tree: BBTree) -> None:
    """Figure 1's completion invariant: no node remains ACTIVE.

    Raises :class:`MIPError` when violated.
    """
    stuck = tree.active_leaves()
    if stuck:
        ids = [n.node_id for n in stuck[:8]]
        raise MIPError(
            f"search not complete: {len(stuck)} nodes still active (e.g. {ids})"
        )


def resume_from_snapshot(problem: MIPProblem, snapshot: SearchSnapshot) -> MIPResult:
    """Finish a search from a snapshot; the optimum is preserved.

    Each captured leaf becomes an independent sub-MIP (the problem
    restricted to the leaf's bound box); the best sub-result merged with
    the snapshot incumbent equals the original problem's optimum.  The
    leaf worklist is :func:`repro.faults.recovery.resume_leaves`.
    """
    from repro.faults.recovery import resume_leaves

    return resume_leaves(problem, snapshot)[0]
