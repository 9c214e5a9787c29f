"""repro — GPU-based Mixed Integer Programming on parallel platforms.

A faithful, simulator-backed reproduction of Perumalla & Alam,
*"Design Considerations for GPU-based Mixed Integer Programming on
Parallel Computing Platforms"* (ICPP Workshops 2021).

Subpackages
-----------
- :mod:`repro.la` — dense and batched linear algebra built from scratch
  (the arithmetic that runs).
- :mod:`repro.device` — calibrated simulated GPU/CPU device model: a meter
  that prices the kernels its callers ran (sparse ones included) and
  never runs them.
- :mod:`repro.comm` — simulated MPI and supervisor–worker orchestration.
- :mod:`repro.lp` — revised simplex, dual simplex, interior point.
- :mod:`repro.mip` — branch-and-cut MIP solver (the paper's subject).
- :mod:`repro.strategies` — the paper's four parallel execution strategies.
- :mod:`repro.problems` — seeded instance generators and MPS I/O.

- :mod:`repro.obs` — unified span tracing, metrics, timeline export.

The most used entry points are re-exported here::

    from repro import MIPProblem, BranchAndBoundSolver, SolverOptions
    from repro import LinearProgram, solve_lp
    from repro.api import solve, SolveOptions   # the unified front door
"""

from repro import obs
from repro.lp.problem import LinearProgram
from repro.lp.simplex import SimplexOptions
from repro.lp.warm import solve_lp
from repro.mip.problem import MIPProblem
from repro.mip.result import MIPResult, MIPStatus
from repro.mip.solver import BranchAndBoundSolver, SolverOptions

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "obs",
    "LinearProgram",
    "solve_lp",
    "SimplexOptions",
    "MIPProblem",
    "MIPResult",
    "MIPStatus",
    "BranchAndBoundSolver",
    "SolverOptions",
]
