"""Runtime dense/sparse path choice — the §5.4 "super-MIP" decision.

"The code must handle user-provided inputs differently, based on whether
the input matrix happens to be dense or sparse; this decision needs to
be made at runtime."  The chooser prices one representative
factorize+solve iteration on each candidate path with the device cost
model and picks the cheapest — no hand-tuned density threshold, the
crossover falls out of the same model the engines charge.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.device import kernels as K
from repro.device.spec import CPU_HOST, V100, DeviceSpec


class PathChoice(enum.Enum):
    """Which device + kernel family solves this problem's LPs."""

    DENSE_GPU = "dense_gpu"
    SPARSE_GPU = "sparse_gpu"
    SPARSE_CPU = "sparse_cpu"
    DENSE_CPU = "dense_cpu"


@dataclass
class PathEstimate:
    """Priced options behind a choice (for reports)."""

    choice: PathChoice
    dense_gpu_seconds: float
    sparse_gpu_seconds: float
    sparse_cpu_seconds: float
    dense_cpu_seconds: float


def _iteration_cost(
    spec: DeviceSpec, m: int, n: int, density: float, sparse: bool
) -> float:
    """One representative simplex iteration + amortized factorization.

    The sparse path assumes what :class:`~repro.strategies.engine.DeviceCostHook`
    prices: 3× fill in the factor and a √m-deep level schedule.
    """
    nnz = max(m, int(density * m * m))
    levels = max(1, int(m ** 0.5))
    if sparse:
        factor = K.sparse_getrf_kernel(m, 3 * nnz, levels).duration(spec)
        solves = 4 * K.sparse_trsv_kernel(m, 3 * nnz // 2, levels).duration(spec)
        pricing = K.spmv_kernel(n, max(n, int(density * m * n))).duration(spec)
    else:
        factor = K.getrf_kernel(m).duration(spec)
        solves = 4 * K.trsv_kernel(m).duration(spec)
        pricing = K.gemv_kernel(n, m).duration(spec)
    # Factorization amortized over a refactor interval of ~64 iterations.
    return factor / 64.0 + solves + pricing


def estimate_paths(
    m: int,
    n: int,
    density: float,
    gpu: DeviceSpec = V100,
    cpu: DeviceSpec = CPU_HOST,
) -> PathEstimate:
    """Price all four paths and return the full estimate."""
    dense_gpu = _iteration_cost(gpu, m, n, density, sparse=False)
    sparse_gpu = _iteration_cost(gpu, m, n, density, sparse=True)
    sparse_cpu = _iteration_cost(cpu, m, n, density, sparse=True)
    dense_cpu = _iteration_cost(cpu, m, n, density, sparse=False)
    best = min(
        (dense_gpu, PathChoice.DENSE_GPU),
        (sparse_gpu, PathChoice.SPARSE_GPU),
        (sparse_cpu, PathChoice.SPARSE_CPU),
        (dense_cpu, PathChoice.DENSE_CPU),
    )
    return PathEstimate(
        choice=best[1],
        dense_gpu_seconds=dense_gpu,
        sparse_gpu_seconds=sparse_gpu,
        sparse_cpu_seconds=sparse_cpu,
        dense_cpu_seconds=dense_cpu,
    )


def choose_path(
    m: int,
    n: int,
    density: float,
    gpu: DeviceSpec = V100,
    cpu: DeviceSpec = CPU_HOST,
) -> PathChoice:
    """The §5.4 runtime decision for a problem of this shape."""
    return estimate_paths(m, n, density, gpu=gpu, cpu=cpu).choice
