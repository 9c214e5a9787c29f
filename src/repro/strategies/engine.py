"""Shared device-metering machinery for the strategy engines.

:class:`DeviceCostHook` translates the revised simplex's linear-algebra
callbacks (:class:`repro.lp.simplex.CostHook`) into kernel charges on a
simulated :class:`repro.device.Device` — the exact kernel stream a
cuBLAS/cuSOLVER-backed solver would launch for the same pivots.

:class:`MeteredEngine` is the base engine: it owns the compute device,
keeps the constraint matrix resident (uploaded once, §5.3), ships only
per-node deltas, and implements the two §5.2 cut-incorporation modes
(CPU-side generation with a device→host→device round trip, or
hypothetical GPU-resident generation).  With a GPU spec it *is* strategy
2 (§3.2), :class:`CpuOrchestratedEngine`.  With ``node_lp="pdhg"`` its
node LPs run as rounds of restarted PDHG
(:meth:`ExecutionEngine._pdhg_round`), priced as the fused matvec stream of
:class:`~repro.lp.pdhg_batch.PdhgDeviceHook`: the registry's ``pdhg``
(host CPU) and ``pdhg_gpu`` (V100) strategies.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from repro.device import kernels as K
from repro.device.gpu import Device
from repro.device.spec import V100, DeviceSpec
from repro.lp.pdhg_batch import PdhgDeviceHook
from repro.lp.problem import StandardFormLP
from repro.lp.simplex import CostHook
from repro.lp.warm import WarmSolveOutcome
from repro.mip.problem import MIPProblem
from repro.mip.solver import ExecutionEngine


# The hooks' fused launches, memoised on their shapes like the builders
# (building one afresh per charge would cost more host calls than the
# launches it saves).


@lru_cache(maxsize=K.BUILDER_MEMO_CAP)
def _with_epilogue(product: K.KernelCost, length: int) -> K.KernelCost:
    """``product`` with an elementwise pass over ``length`` outputs fused in."""
    return K.fused_kernel(product, K.axpy_kernel(length))


@lru_cache(maxsize=K.BUILDER_MEMO_CAP)
def _vector_pass(lengths: Tuple[int, ...]) -> K.KernelCost:
    """Elementwise passes over ``lengths``, back to back in one launch."""
    return K.fused_kernel(*map(K.axpy_kernel, lengths))


class DeviceCostHook(CostHook):
    """Charge simplex linear algebra to a device.

    ``mode`` selects the §5.4 code path: "dense" uses the dense kernels
    (getrf/trsv/gemv); "sparse" prices the same operations with the
    sparse kernels at the problem's nonzero density under two *assumed*
    structure constants — fill-in triples the basis nonzeros, and the
    level schedule is √m deep.  No symbolic factorization is run.
    """

    def __init__(self, device: Device, mode: str = "dense", density: float = 1.0):
        self.device = device
        self.mode = mode
        self.density = density

    def _nnz(self, m: int) -> int:
        return max(m, int(self.density * m * m))

    def _levels(self, m: int) -> int:
        return max(1, int(np.sqrt(m)))

    def on_factorize(self, m: int) -> None:
        if self.mode == "dense":
            self.device._charge(K.getrf_kernel(m), None)
        else:
            # Fill-in roughly triples the basis nnz for these densities.
            self.device._charge(
                K.sparse_getrf_kernel(m, 3 * self._nnz(m), self._levels(m)), None
            )

    def _triangular_pair(self, m: int, block: int = 0) -> None:
        # ``block`` > 0: one pair of solves over that many right-hand sides.
        if self.mode == "dense":
            solve = K.trsm_kernel(m, block) if block else K.trsv_kernel(m)
        else:
            nnz = 3 * self._nnz(m) // 2
            solve = K.sparse_trsv_kernel(m, nnz, self._levels(m), max(1, block))
        self.device._charge(solve, None)
        self.device._charge(solve, None)

    def on_ftran(self, m: int, num_etas: int) -> None:
        self._triangular_pair(m)
        if num_etas:
            self.device._charge(K.eta_chain_kernel(m, num_etas), None)

    #: The transposed solve launches the same trsv, trsv, eta-chain.
    on_btran = on_ftran

    def on_flip_run(self, m: int, num_etas: int, width: int) -> None:
        # The block's solve is a multi-rhs triangular pair and one eta
        # chain over its columns; the scan is the run's prefix sum of
        # x_B moves, an (m × w)·(w × w) product.
        self._triangular_pair(m, width)
        if num_etas:
            self.device._charge(K.eta_chain_kernel(m, num_etas, width), None)
        self.device._charge(K.gemm_kernel(m, width, width), None)

    def on_pricing(self, m: int, n: int, epilogue: int) -> None:
        # The epilogue rides on whichever product the mode prices.
        if self.mode == "dense":
            cost = K.gemv_kernel(n, m)
        else:
            cost = K.spmv_kernel(n, int(self.density * m * n))
        if epilogue:
            cost = _with_epilogue(cost, epilogue)
        self.device._charge(cost, None)

    def on_vector_pass(self, *lengths: int) -> None:
        self.device._charge(_vector_pass(lengths), None)

    def on_propagation(self, k: int, m: int, n: int) -> None:
        # Both activity products read [lb ub] against [A⁺ A⁻]; the
        # candidate pass covers the matrix (its nonzeros when sparse).
        if self.mode == "dense":
            product, cells = K.gemm_kernel(k, m, 2 * n), k * m * n
        else:
            nnz = int(self.density * m * n)
            product, cells = K.batched_kernel(K.spmv_kernel(m, nnz), k), k * nnz
        self.device._charge(_with_epilogue(product, cells), None)

    def on_ratio_test(self, m: int) -> None:
        self.device._charge(K.axpy_kernel(m), None)

    # The explicit inverse is dense whatever the matrix: priced as dense
    # in "sparse" mode too.

    def on_invert(self, m: int) -> None:
        self.device._charge(K.getrf_kernel(m), None)
        self.device._charge(K.getri_kernel(m), None)

    def on_inverse_apply(self, m: int, epilogue: int) -> None:
        cost = K.gemv_kernel(m, m)
        if epilogue:
            cost = _with_epilogue(cost, epilogue)
        self.device._charge(cost, None)

    # on_inverse_row launches nothing: the next GEMV reads the row in
    # place (a strided operand, incx = lda).

    def on_inverse_update(self, m: int) -> None:
        self.device._charge(K.ger_kernel(m, m), None)


class KernelTape(DeviceCostHook):
    """Prices like :class:`DeviceCostHook`, onto a tape instead of a clock.

    ``segments[i]`` holds the kernels of iteration ``i`` in launch order
    (``segments[0]``: set-up).  A lockstep round solves each member
    through one and then launches the members' tapes merged
    (:class:`repro.mip.batch_solver.BatchedRoundEngine`).
    """

    def __init__(self):
        super().__init__(self)  # its own "device"; dense kernels
        self.segments = [[]]

    def _charge(self, cost: K.KernelCost, stream) -> None:
        self.segments[-1].append(cost)

    def on_pivot(self) -> None:
        self.segments.append([])


class MeteredEngine(ExecutionEngine):
    """Base engine: resident matrix on one compute device.

    Every LP runs on ``device``, priced by one :class:`DeviceCostHook`
    (its PDHG solves by a :class:`~repro.lp.pdhg_batch.PdhgDeviceHook`).
    Subclasses move the hooks, add devices to ``devices`` and change
    what ``begin_node`` / ``ship_cuts`` send over the link; the platform
    summary, the final synchronisation and the makespan cover ``devices``.
    """

    def __init__(
        self,
        spec: DeviceSpec,
        cut_generation: str = "cpu",  # "cpu" (paper: no GPU generators) | "gpu"
        node_lp: str = "simplex",
    ):
        super().__init__(node_lp)
        self.device = Device(spec)
        self.devices = [self.device]
        self.cut_generation = cut_generation
        self._matrix_bytes = 0
        self.lp_hook = self.probe_hook = DeviceCostHook(self.device, mode="dense")
        self.pdhg_hook = PdhgDeviceHook(self.device)

    # -- hooks ------------------------------------------------------------------

    def begin_search(self, problem: MIPProblem, sf_root: StandardFormLP) -> None:
        # Upload the constraint matrix once; it stays resident (§5.3).
        self._matrix_bytes = sf_root.a.size * 8
        self.device.upload(sf_root.a)
        density = float(np.count_nonzero(sf_root.a)) / max(1, sf_root.a.size)
        self.lp_hook = self.probe_hook = DeviceCostHook(
            self.device, mode="dense", density=density
        )

    def begin_node(self, node_id: int, tree_distance: Optional[int]) -> None:
        # Shipping a node to the device = new bound RHS entries + the
        # basis column list: a small vector, not the matrix.
        if self.device.spec.is_accelerator:
            self.device.transfers.host_to_device(256)

    def solve_relaxation(self, sf, warm=None, probe=False) -> WarmSolveOutcome:
        # Defined here, not inherited: perf/trace.py patches this name.
        return super().solve_relaxation(sf, warm, probe)

    def ship_cuts(self, cut_bytes: int) -> None:
        # §5.2: the CPU generator "will require the latest copy of the
        # matrix … to be copied from the device to the host", then the
        # cuts move back and are incorporated.  A (hypothetical)
        # GPU-resident generator appends its rows in place.
        if self.device.spec.is_accelerator and self.cut_generation == "cpu":
            self.device.transfers.device_to_host(self._matrix_bytes)
            self.device.transfers.host_to_device(cut_bytes)


class CpuOrchestratedEngine(MeteredEngine):
    """Strategy 2: CPU-orchestration of GPU execution (§3.2).

    "The branch-and-cut tree is stored in the CPU main memory, while the
    GPU is used only as an accelerator for the computation of each
    branch-and-cut node."  The tree lives in host memory (no device
    charge), the constraint matrix is uploaded once and stays resident,
    each node ships only its bound delta, and every LP kernel runs on
    the GPU — the least complex of the paper's two winning strategies,
    and therefore just the base engine with a GPU spec.
    """

    def __init__(self, cut_generation: str = "cpu"):
        super().__init__(V100, cut_generation)
