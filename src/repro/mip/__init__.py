"""Mixed integer programming: branch-and-cut — the paper's subject.

- :mod:`repro.mip.problem` — `MIPProblem` (paper Eq. 1).
- :mod:`repro.mip.tree` — the branch-and-bound tree with the node tags
  of Figure 1 (active / feasible / infeasible / pruned / branched).
- :mod:`repro.mip.snapshot` — consistent snapshots and restart (§2.1).
- :mod:`repro.mip.branching` — most-fractional / pseudocost / strong.
- :mod:`repro.mip.node_selection` — best-first / depth-first / hybrid /
  GPU-locality-aware ordering (§5.3).
- :mod:`repro.mip.cuts` — Gomory mixed-integer and knapsack cover cuts
  with a cut pool (§5.2).
- :mod:`repro.mip.portfolio` — the batched primal-heuristic portfolio
  (rounding, diving, feasibility jump, LNS).
- :mod:`repro.mip.solver` — the branch-and-cut driver, parameterized by
  an execution engine so the paper's strategies can meter every LP
  solve, transfer and kernel.
- :mod:`repro.mip.ivm` — the Integer-Vector-Matrix tree representation
  of Gmys et al. for permutation problems (§2.3).
- :mod:`repro.mip.propagation` — row-activity domain propagation over
  stacks of boxes, run at every branching: the tree's §3.3 probing.
- :mod:`repro.mip.colgen` — Gilmore–Gomory column generation (§3.3).
- :mod:`repro.mip.checkpoint` — JSON snapshot persistence (§2.3, UG).
- :mod:`repro.mip.batch_solver` — the width-k round engine that makes
  the same driver, under the same rules, a batched-node B&B (§5.5
  end-to-end).
"""

from repro.mip.problem import MIPProblem
from repro.mip.result import MIPResult, MIPStatus
from repro.mip.batch_solver import BatchedNodeSolver, BatchedRoundEngine
from repro.mip.solver import BranchAndBoundSolver, SolverOptions
from repro.mip.tree import BBTree, NodeTag

__all__ = [
    "MIPProblem",
    "MIPResult",
    "MIPStatus",
    "BranchAndBoundSolver",
    "SolverOptions",
    "BatchedNodeSolver",
    "BatchedRoundEngine",
    "BBTree",
    "NodeTag",
]
