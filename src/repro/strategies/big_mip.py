"""Strategy 4: Big-MIP execution (§3.4).

"The matrix sizes can be so large that it is not possible to store the
entire matrix on a single node … each LP relaxation itself operates as a
parallel matrix operation that spans multiple nodes in a distributed
manner.  One processor acts as the orchestrator of the serial
branch-and-cut algorithm, but each linear program relaxation is executed
as a parallel job."

The engine shards the constraint matrix column-wise across ``k``
devices.  Every simplex operation becomes: the sharded kernel on each
device (they advance in lockstep; the slowest shard gates) plus an
allreduce across the group (2·log₂k messages) — the communication tax
that makes Big-MIP worthwhile *only* when the matrix genuinely exceeds a
single device's memory.  The shards are the engine's ``devices``: its
report, final synchronisation and makespan cover them (lockstep: the
slowest shard gates every step).  No sharded first-order price exists,
so ``node_lp="pdhg"`` is refused.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.comm.network import SUMMIT_FAT_TREE, NetworkSpec
from repro.device import kernels as K
from repro.device.gpu import Device
from repro.device.spec import NVLINK, V100, LinkSpec
from repro.errors import DeviceError, ReproError
from repro.lp.problem import StandardFormLP
from repro.lp.simplex import CostHook
from repro.mip.problem import MIPProblem
from repro.strategies.engine import MeteredEngine


class _ShardedHook(CostHook):
    """Charge each simplex op as sharded kernels + group allreduce.

    ``peer_link`` switches the reduction from inter-node MPI messages to
    an intra-node NVLink ring (direct GPU↔GPU, §3.1's fast path).
    """

    def __init__(
        self,
        devices: List[Device],
        network: NetworkSpec,
        peer_link: "LinkSpec" = None,
    ):
        self.devices = devices
        self.network = network
        self.peer_link = peer_link
        self.k = len(devices)
        self._depth = max(1, math.ceil(math.log2(max(2, self.k))))

    def _allreduce(self, nbytes: int) -> None:
        if self.k == 1:
            return
        if self.peer_link is not None:
            from repro.device.group import allreduce_seconds

            seconds = allreduce_seconds(self.peer_link, self.k, nbytes)
        else:
            seconds = 2 * self._depth * self.network.message_time(nbytes)
        for device in self.devices:
            device.clock.advance(seconds)
            device.metrics.inc("comm.allreduce")
            device.metrics.add_time("time.allreduce", seconds)

    def _charge_all(self, cost: K.KernelCost) -> None:
        for device in self.devices:
            device._charge(cost, None)

    def on_factorize(self, m: int) -> None:
        # Distributed dense LU: each device owns m/k columns; per-step
        # pivot exchange adds an allreduce on every elimination panel.
        shard = max(1, m // self.k)
        self._charge_all(K.getrf_kernel(shard) if shard < m else K.getrf_kernel(m))
        self._charge_all(K.gemm_kernel(m, shard, shard))
        self._allreduce(8 * m)

    def on_ftran(self, m: int, num_etas: int) -> None:
        shard = max(1, m // self.k)
        self._charge_all(K.trsv_kernel(shard))
        self._charge_all(K.trsv_kernel(shard))
        if num_etas:
            self._charge_all(K.eta_chain_kernel(shard, num_etas))
        self._allreduce(8 * m)

    on_btran = on_ftran

    def on_flip_run(self, m: int, num_etas: int, width: int) -> None:
        shard = max(1, m // self.k)
        self._charge_all(K.trsm_kernel(shard, width))
        self._charge_all(K.trsm_kernel(shard, width))
        if num_etas:
            self._charge_all(K.eta_chain_kernel(shard, num_etas, width))
        self._allreduce(8 * m * width)
        # The scan's prefix sum over each device's rows; one small
        # reduction finds where the run stops.
        self._charge_all(K.gemm_kernel(shard, width, width))
        self._allreduce(8 * 16)

    def _shard_pass(self, length: int) -> K.KernelCost:
        return K.axpy_kernel(max(1, length // self.k))

    def on_pricing(self, m: int, n: int, epilogue: int) -> None:
        # Each device runs the epilogue over its own slice of the output.
        shard_cols = max(1, n // self.k)
        product = K.gemv_kernel(shard_cols, m)
        if epilogue:
            product = K.fused_kernel(product, self._shard_pass(epilogue))
        self._charge_all(product)
        self._allreduce(8 * 16)  # argmax reduction of candidate scores

    def on_vector_pass(self, *lengths: int) -> None:
        # Nothing reduces: each device sweeps its slices, no allreduce.
        self._charge_all(K.fused_kernel(*map(self._shard_pass, lengths)))

    def on_ratio_test(self, m: int) -> None:
        self._charge_all(self._shard_pass(m))
        self._allreduce(8 * 16)

    def on_propagation(self, k: int, m: int, n: int) -> None:
        # Each device's columns give a partial min activity; the k boxes'
        # activities are summed across the group before every device
        # takes its own columns' candidates (it holds all their rows).
        shard_cols = max(1, n // self.k)
        self._charge_all(K.gemm_kernel(k, m, 2 * shard_cols))
        self._allreduce(8 * k * m)
        self._charge_all(K.axpy_kernel(k * m * shard_cols))

    # The explicit inverse is sharded by rows: each device inverts,
    # applies and updates its m/k rows; a solve's result is gathered.

    def on_invert(self, m: int) -> None:
        self.on_factorize(m)
        shard = max(1, m // self.k)
        self._charge_all(K.trsm_kernel(m, shard))
        self._charge_all(K.trsm_kernel(m, shard))

    def on_inverse_apply(self, m: int, epilogue: int) -> None:
        # Each device updates its own rows before the result is gathered.
        product = K.gemv_kernel(max(1, m // self.k), m)
        if epilogue:
            product = K.fused_kernel(product, self._shard_pass(epilogue))
        self._charge_all(product)
        self._allreduce(8 * m)

    def on_inverse_row(self, m: int) -> None:
        # The row lives on one device: gathered to all, no kernel.
        self._allreduce(8 * m)

    def on_inverse_update(self, m: int) -> None:
        self._charge_all(K.ger_kernel(max(1, m // self.k), m))


class BigMipEngine(MeteredEngine):
    """Serial branch-and-cut over a matrix sharded across k devices."""

    def __init__(self, num_devices: int, intra_node: bool = False):
        if num_devices < 1:
            raise DeviceError(f"Big-MIP needs >= 1 device, got {num_devices}")
        super().__init__(V100)
        self.devices = [Device(V100) for _ in range(num_devices)]
        self.network = SUMMIT_FAT_TREE
        self.num_devices = num_devices
        #: True: devices share a node and reduce over NVLink (§3.1's
        #: "direct GPU to GPU communication"); False: MPI messages.
        self.intra_node = intra_node

    def begin_search(self, problem: MIPProblem, sf_root: StandardFormLP) -> None:
        if self.node_lp == "pdhg":
            raise ReproError(
                "big_mip has no sharded first-order price: node_lp='pdhg' "
                "is not supported"
            )
        # Shard the matrix column-wise; each device holds its slice.
        shard_bytes = max(8, sf_root.a.size * 8 // self.num_devices)
        for device in self.devices:
            # Account the shard's footprint and its one-time upload
            # without materializing huge host arrays.
            device.alloc(b"", nbytes=shard_bytes)
            device.transfers.host_to_device(shard_bytes)
        self.lp_hook = self.probe_hook = _ShardedHook(
            self.devices,
            self.network,
            peer_link=NVLINK if self.intra_node else None,
        )

    def begin_node(self, node_id: int, tree_distance: Optional[int]) -> None:
        for device in self.devices:
            device.transfers.host_to_device(256)

    def ship_cuts(self, cut_bytes: int) -> None:
        # Cut rows are broadcast to every shard owner.
        for device in self.devices:
            device.transfers.host_to_device(cut_bytes)
