"""Roofline cost model for every kernel class the MIP solver issues.

A kernel's simulated duration is the classic roofline bound

    launch_latency + max(flops / sustained_flops, bytes / mem_bandwidth)

plus, for level-scheduled sparse factorizations, one device-wide
synchronization per level (the GLU-style critical path, paper §4.2).
``sustained_flops`` folds in the device's dense/sparse efficiency and a
utilization factor for under-sized kernels — the two effects the paper's
§4–§5 design discussion revolves around.

Kernel *builders* below return a :class:`KernelCost` from problem shapes;
the caller runs the numerics and launches the cost on a
:class:`repro.device.gpu.Device`, which charges it to its clock/streams.

A search launches the same handful of shapes thousands of times, and a
builder is a pure function of integers returning a frozen value, so
every builder is memoised (an LRU of :data:`BUILDER_MEMO_CAP` shapes
each, filled as shapes are first launched — nothing at import time).

:func:`fused_kernel` is the one place a *fused* launch is priced: one
launch latency plus the sum of its parts' bodies (DESIGN.md "One launch
per step").  Which operations share a launch is the caller's decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Tuple

from repro.device.spec import DeviceSpec
from repro.la import flops as F

#: Shapes each builder remembers.  A tree search needs a few hundred
#: (basis dimension × eta-chain length); the cap is for long-lived servers.
BUILDER_MEMO_CAP = 1024
_memoised = lru_cache(maxsize=BUILDER_MEMO_CAP)


@dataclass(frozen=True)
class KernelCost:
    """Shape-derived cost of one kernel launch."""

    name: str
    flops: int
    bytes_moved: int
    #: Independent scalar work items available at once (utilization input).
    parallel_elements: int
    #: True for irregular/divergent kernels (sparse efficiency applies).
    sparse: bool = False
    #: Device-wide synchronization points inside the kernel (levels).
    serial_depth: int = 0
    #: The kernels a fused launch runs back to back (empty: one kernel).
    #: Left out of the hash — the name and the totals already tell fused
    #: costs apart; ``key`` (below) reads them.
    parts: Tuple["KernelCost", ...] = field(default=(), hash=False)
    #: Every compared field as one tuple of plain values, the parts by
    #: their keys: equal exactly when the costs are equal, and hashed in
    #: C, so a device's price table looks a launch up without calling
    #: ``__hash__``.  Built once per cost (builders are memoised).
    key: tuple = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "key", (
            self.name, self.flops, self.bytes_moved, self.parallel_elements,
            self.sparse, self.serial_depth, tuple(part.key for part in self.parts),
        ))

    def duration(self, spec: DeviceSpec) -> float:
        """Simulated seconds this kernel occupies the device."""
        if self.parts:
            launch = spec.kernel_launch_latency
            return launch + sum(part.duration(spec) - launch for part in self.parts)
        sustained = spec.effective_flops(self.parallel_elements, self.sparse)
        compute = self.flops / sustained if self.flops else 0.0
        memory = self.bytes_moved / spec.mem_bandwidth if self.bytes_moved else 0.0
        sync = self.serial_depth * spec.sync_latency
        return spec.kernel_launch_latency + max(compute, memory) + sync

    def failed_duration(self, spec: DeviceSpec, fraction: float) -> float:
        """Seconds wasted by a launch that dies ``fraction`` of the way in.

        The launch latency is paid in full even for an immediate abort;
        the remaining body is prorated.  Used by the fault injector to
        price the partial work of a failed attempt.
        """
        frac = min(max(fraction, 0.0), 1.0)
        body = self.duration(spec) - spec.kernel_launch_latency
        return spec.kernel_launch_latency + body * frac


@_memoised
def gemm_kernel(m: int, n: int, k: int) -> KernelCost:
    """Dense matrix multiply C(m,n) = A(m,k) B(k,n)."""
    return KernelCost(
        name="gemm",
        flops=F.gemm_flops(m, n, k),
        bytes_moved=F.gemm_bytes(m, n, k),
        parallel_elements=m * n,
    )


@_memoised
def gemv_kernel(m: int, n: int) -> KernelCost:
    """Dense matrix-vector product."""
    return KernelCost(
        name="gemv",
        flops=F.gemv_flops(m, n),
        bytes_moved=F.gemv_bytes(m, n),
        parallel_elements=m,
    )


@_memoised
def axpy_kernel(n: int) -> KernelCost:
    """Vector update y += a x."""
    return KernelCost(
        name="axpy",
        flops=F.axpy_flops(n),
        bytes_moved=3 * F.vector_bytes(n),
        parallel_elements=n,
    )


@_memoised
def dot_kernel(n: int) -> KernelCost:
    """Dot product (tree reduction → log-depth sync charged as 1)."""
    return KernelCost(
        name="dot",
        flops=F.dot_flops(n),
        bytes_moved=2 * F.vector_bytes(n),
        parallel_elements=n,
        serial_depth=1,
    )


@_memoised
def getrf_kernel(n: int) -> KernelCost:
    """Dense LU factorization.

    The per-column pivot search serializes n device-wide steps; the
    trailing updates dominate flops.  Parallelism per step is ~n² but we
    charge the mean trailing block (n²/4) to reflect shrink-to-zero.
    """
    return KernelCost(
        name="getrf",
        flops=F.lu_flops(n),
        bytes_moved=F.matrix_bytes(n, n),
        parallel_elements=max(1, (n * n) // 4),
        serial_depth=n,
    )


@_memoised
def getri_kernel(n: int) -> KernelCost:
    """Dense inverse from LU factors: two triangular solves on n RHS.

    Reads the packed factors, writes the inverse; parallel across the
    identity's columns, panel-serial like :func:`trsm_kernel`.
    """
    return KernelCost(
        name="getri",
        flops=2 * F.trsm_flops(n, n),
        bytes_moved=2 * F.matrix_bytes(n, n),
        parallel_elements=max(1, n * n // 2),
        serial_depth=2 * max(1, n // 32),
    )


@_memoised
def ger_kernel(m: int, n: int) -> KernelCost:
    """Rank-1 update of a resident m×n matrix, ``A ← A − u vᵀ`` (§5.1).

    One pass that reads and writes the whole matrix: memory-bound, and
    the price an explicit inverse pays per basis change where the
    product form appends a vector.
    """
    return KernelCost(
        name="ger",
        flops=2 * m * n,
        bytes_moved=2 * F.matrix_bytes(m, n) + F.vector_bytes(m + n),
        parallel_elements=m * n,
    )


@_memoised
def potrf_kernel(n: int) -> KernelCost:
    """Dense Cholesky factorization."""
    return KernelCost(
        name="potrf",
        flops=F.cholesky_flops(n),
        bytes_moved=F.matrix_bytes(n, n),
        parallel_elements=max(1, (n * n) // 4),
        serial_depth=n,
    )


@_memoised
def trsv_kernel(n: int) -> KernelCost:
    """Dense triangular solve, one RHS (level-blocked).

    Production GPU solvers block the substitution into ~32-row panels:
    within a panel rows resolve via a small dense inverse, so the serial
    depth is n/32 panels, with panel-GEMV parallelism between them.
    """
    return KernelCost(
        name="trsv",
        flops=F.trsv_flops(n),
        bytes_moved=F.matrix_bytes(n, n) // 2 + 2 * F.vector_bytes(n),
        parallel_elements=max(1, 4 * n),
        serial_depth=max(1, n // 32),
    )


@_memoised
def trsm_kernel(n: int, nrhs: int) -> KernelCost:
    """Dense triangular solve with many RHS (parallelism across RHS)."""
    return KernelCost(
        name="trsm",
        flops=F.trsm_flops(n, nrhs),
        bytes_moved=F.matrix_bytes(n, n) // 2 + 2 * F.matrix_bytes(n, nrhs),
        parallel_elements=max(1, nrhs * n // 2),
        serial_depth=max(1, n // 32),
    )


@_memoised
def spmv_kernel(m: int, nnz: int) -> KernelCost:
    """CSR sparse matrix-vector product (irregular gather)."""
    return KernelCost(
        name="spmv",
        flops=F.spmv_flops(nnz),
        bytes_moved=F.csr_bytes(m, nnz) + 2 * F.vector_bytes(m),
        parallel_elements=m,
        sparse=True,
    )


@_memoised
def sparse_getrf_kernel(n: int, factor_nnz: int, num_levels: int) -> KernelCost:
    """Level-scheduled sparse LU (GLU-style).

    ``num_levels`` is the column-DAG critical path the caller assumes
    (no symbolic factorization is run here to measure it); each level
    is one device-wide sync, which is exactly why few-level
    (well-parallelizable) matrices run well on GPUs and long chains do
    not (paper §4.2).
    """
    per_level = max(1, n // max(1, num_levels))
    return KernelCost(
        name="sparse_getrf",
        flops=F.sparse_lu_flops(factor_nnz),
        bytes_moved=F.csr_bytes(n, factor_nnz),
        parallel_elements=per_level * 8,  # ~8 scalar ops live per column
        sparse=True,
        serial_depth=num_levels,
    )


@_memoised
def sparse_trsv_kernel(n: int, factor_nnz: int, num_levels: int, nrhs: int = 1) -> KernelCost:
    """Sparse triangular solve over the same level schedule.

    ``nrhs`` right-hand sides share the launch, the factor reads and
    the levels; each adds its own vector traffic and parallelism.
    """
    return KernelCost(
        name="sparse_trsv",
        flops=nrhs * F.spmv_flops(factor_nnz),
        bytes_moved=F.csr_bytes(n, factor_nnz) + 2 * (nrhs - 1) * F.vector_bytes(n),
        parallel_elements=nrhs * max(1, n // max(1, num_levels)),
        sparse=True,
        serial_depth=num_levels,
    )


@_memoised
def batched_getrf_kernel(batch: int, n: int) -> KernelCost:
    """Batched LU: one launch, batch×n² parallel elements (paper §5.5).

    The serial depth is n (lockstep elimination steps), *not* batch×n —
    the whole point of batching.
    """
    return KernelCost(
        name="batched_getrf",
        flops=batch * F.lu_flops(n),
        bytes_moved=batch * F.matrix_bytes(n, n),
        parallel_elements=batch * max(1, (n * n) // 4),
        serial_depth=n,
    )


@_memoised
def batched_trsv_kernel(batch: int, n: int) -> KernelCost:
    """Batched triangular solves (parallel across the batch)."""
    return KernelCost(
        name="batched_trsv",
        flops=batch * F.trsv_flops(n),
        bytes_moved=batch * (F.matrix_bytes(n, n) // 2 + 2 * F.vector_bytes(n)),
        parallel_elements=batch * max(1, n // 2),
        serial_depth=n,
    )


@_memoised
def eta_chain_kernel(n: int, num_etas: int, nrhs: int = 1) -> KernelCost:
    """Apply a chain of ``num_etas`` eta updates to ``nrhs`` n-vectors (fused).

    Real GPU simplex codes fuse the product-form update chain into one
    kernel ([28]/[31] in the paper); each eta is an axpy+scale that must
    follow the previous, so the chain contributes serial depth.  Several
    right-hand sides share the launch, the eta reads and the depth.
    """
    return KernelCost(
        name="eta_chain",
        flops=nrhs * num_etas * (F.axpy_flops(n) + 1),
        bytes_moved=(num_etas + 2 * nrhs) * F.vector_bytes(n),
        parallel_elements=nrhs * n,
        serial_depth=max(1, num_etas),
    )


@_memoised
def batched_gemm_kernel(batch: int, m: int, n: int, k: int) -> KernelCost:
    """Batched GEMM."""
    return KernelCost(
        name="batched_gemm",
        flops=batch * F.gemm_flops(m, n, k),
        bytes_moved=batch * F.gemm_bytes(m, n, k),
        parallel_elements=batch * m * n,
    )


@_memoised
def fused_kernel(*parts: KernelCost) -> KernelCost:
    """``parts`` run back to back inside one launch.

    The launch latency is paid once; every part keeps its own body (its
    duration minus the launch: roofline term plus syncs).  So fusion
    saves launches and nothing else — no traffic shared between parts,
    no utilization pooled across them.  One part is that part.  Parts
    are single kernels, which :func:`batched_kernel` batches one by one.
    """
    if len(parts) == 1:
        return parts[0]
    return KernelCost(
        name="+".join(part.name for part in parts),
        flops=sum(part.flops for part in parts),
        bytes_moved=sum(part.bytes_moved for part in parts),
        parallel_elements=max(part.parallel_elements for part in parts),
        sparse=any(part.sparse for part in parts),
        serial_depth=sum(part.serial_depth for part in parts),
        parts=parts,
    )


def _batch_of(cost: KernelCost, batch: int) -> KernelCost:
    return replace(
        cost,
        name=f"batched_{cost.name}",
        flops=batch * cost.flops,
        bytes_moved=batch * cost.bytes_moved,
        parallel_elements=batch * cost.parallel_elements,
    )


@_memoised
def batched_kernel(cost: KernelCost, batch: int) -> KernelCost:
    """``batch`` independent instances of ``cost`` in one launch (§5.5).

    Work, traffic and parallelism scale with the batch; the launch and
    the serial depth are paid once — the convention of the ``batched_*``
    builders above, for any kernel.  A batch of one is the kernel itself;
    a batched fused launch is the fused launch of its batched parts.
    """
    if batch == 1:
        return cost
    if cost.parts:
        return fused_kernel(*(_batch_of(part, batch) for part in cost.parts))
    return _batch_of(cost, batch)


def launch_lp_stream(device, m: int, n: int, iterations: int) -> None:
    """Launch one serial small-LP solve on ``device`` (synchronously).

    The stream a revised simplex on an m-row, n-column LP issues: one
    factorization, then per iteration — a pricing pass, whose run of
    bound flips and pivot it prices as one — two triangular solves and a
    pricing GEMV; at least one, so a solve that ends at its starting
    basis still pays for looking.  The one spelling shared by
    :func:`repro.api.solve` on an LP and the portfolio's LP re-solves.
    """
    device._charge(getrf_kernel(m), None)
    for _ in range(max(1, iterations)):
        device._charge(trsv_kernel(m), None)
        device._charge(trsv_kernel(m), None)
        device._charge(gemv_kernel(n, m), None)
