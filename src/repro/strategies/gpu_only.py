"""Strategy 1: entirely GPU-based execution (§3.1).

"The branch-and-cut tree is entirely stored and manipulated on the
GPUs."  Besides the LP kernels, this engine therefore also charges the
device for tree management — node pushes/pops are pointer-chasing,
SIMD-hostile work (priced with the sparse efficiency) — and every open
node's state occupies device memory, so deep searches hit the memory
wall the paper warns about ("the difficulty of storing and manipulating
very large trees … within the limited confines of GPU memory").

On device OOM the engine *spills* the node store to the host, paying a
full transfer — the failure mode that makes strategy 1 uncompetitive.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.device import kernels as K
from repro.device.spec import V100
from repro.errors import DeviceMemoryError
from repro.lp.problem import StandardFormLP
from repro.mip.problem import MIPProblem
from repro.strategies.engine import MeteredEngine


class GpuOnlyEngine(MeteredEngine):
    """Tree and LP both resident on the GPU."""

    def __init__(self):
        super().__init__(V100)
        self._node_arrays: Dict[int, object] = {}
        self._node_bytes = 0
        self.spills = 0

    def begin_search(self, problem: MIPProblem, sf_root: StandardFormLP) -> None:
        super().begin_search(problem, sf_root)
        # Per-node state: lb/ub vectors + warm basis + tags.
        self._node_bytes = 2 * problem.n * 8 + sf_root.m * 8 + 64

    def begin_node(self, node_id: int, tree_distance: Optional[int]) -> None:
        # Tree manipulation happens *on the GPU*: a pop + two child
        # pushes of irregular pointer work per node, at sparse efficiency
        # and with kernel-launch latency each time.
        for _ in range(3):
            self.device._charge(K.spmv_kernel(64, 256), None)
        # Node state is allocated in device memory; on OOM, spill the
        # oldest half of the store back to the host.
        try:
            self._node_arrays[node_id] = self.device.alloc(
                b"", nbytes=self._node_bytes
            )
        except DeviceMemoryError:
            self._spill()
            self._node_arrays[node_id] = self.device.alloc(
                b"", nbytes=self._node_bytes
            )

    def _spill(self) -> None:
        """Move half the node store to the host (expensive, counted)."""
        self.spills += 1
        victims = list(self._node_arrays)[: max(1, len(self._node_arrays) // 2)]
        freed = 0
        for nid in victims:
            arr = self._node_arrays.pop(nid)
            freed += arr.nbytes
            self.device.free(arr)
        self.device.transfers.device_to_host(freed)
