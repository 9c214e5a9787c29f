"""The paper's four parallel execution strategies (§3), realized.

Each strategy is an :class:`repro.mip.solver.ExecutionEngine` that runs
the *same* branch-and-cut search while charging a simulated platform for
every kernel, transfer, and (for the distributed strategies) message:

1. :mod:`repro.strategies.gpu_only` — tree + node solving entirely on
   the GPU; pays SIMD-hostile tree management and risks device OOM.
2. :class:`repro.strategies.engine.CpuOrchestratedEngine` — tree in host
   memory, GPU as the LP accelerator (the paper's recommended design).
3. :mod:`repro.strategies.hybrid` — runtime dense/sparse path choice
   between GPU and the many-core host (§5.4's "super-MIP"), CPU-side
   cut generation without matrix round-trips.
4. :mod:`repro.strategies.big_mip` — the LP matrix itself is sharded
   across many devices; every solver operation becomes a distributed
   kernel + allreduce.

:mod:`repro.strategies.engine` holds the shared device-metering
machinery; :mod:`repro.strategies.chooser` the §5.4 path chooser;
:mod:`repro.strategies.distributed` the supervisor–worker parallel
search used for scaling experiments.
"""

from repro.strategies import registry
from repro.strategies.engine import (
    CpuOrchestratedEngine,
    DeviceCostHook,
    MeteredEngine,
)
from repro.strategies.gpu_only import GpuOnlyEngine
from repro.strategies.hybrid import HybridEngine
from repro.strategies.big_mip import BigMipEngine
from repro.strategies.chooser import PathChoice, choose_path
from repro.strategies.distributed import DistributedSearchResult, solve_distributed

__all__ = [
    "registry",
    "DeviceCostHook",
    "MeteredEngine",
    "GpuOnlyEngine",
    "CpuOrchestratedEngine",
    "HybridEngine",
    "BigMipEngine",
    "PathChoice",
    "choose_path",
    "solve_distributed",
    "DistributedSearchResult",
]
