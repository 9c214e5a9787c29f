"""Simulated accelerator substrate.

No GPU is available in this environment, so the paper's platform
(V100-class accelerators, CUDA streams, PCIe/NVLink links) is replaced by
a calibrated analytic model (see DESIGN.md's substitution table):

- :mod:`repro.device.spec` — device/host/link presets with published
  peak-rate numbers (V100, A100, MI100, a 2×32-core host).
- :mod:`repro.device.clock` — monotone simulated clock.
- :mod:`repro.device.memory` — capacity-accounted allocator with OOM.
- :mod:`repro.device.transfer` — host↔device transfer engine that counts
  and prices every byte moved (paper §4.3/§5.1–5.3 are about these).
- :mod:`repro.device.kernels` — roofline cost model for each kernel the
  MIP solver issues (GEMM, GETRF, TRSV, SpMV, batched, sparse LU).
- :mod:`repro.device.gpu` — the `Device` meter: capacity-accounted
  device arrays, transfers, streams, and ``_charge`` — one launch of a
  kernel cost on the simulated clock.

The device computes nothing.  Callers run their numerics with
:mod:`repro.la` / NumPy and then launch the kernels they ran; only *time*
is simulated, using a work-and-span model (elapsed = max(critical path,
total work / concurrency)) so stream overlap behaves like real hardware.
"""

from repro.device.clock import SimClock
from repro.device.gpu import Device, DeviceArray, Stream
from repro.device.group import DeviceGroup, allreduce_seconds
from repro.device.memory import MemoryPool
from repro.device.spec import (
    A100,
    CPU_HOST,
    MI100,
    NVLINK,
    PCIE3,
    PCIE4,
    DeviceSpec,
    LinkSpec,
    V100,
)
from repro.device.transfer import TransferEngine

__all__ = [
    "SimClock",
    "MemoryPool",
    "TransferEngine",
    "Device",
    "DeviceArray",
    "Stream",
    "DeviceGroup",
    "allreduce_seconds",
    "DeviceSpec",
    "LinkSpec",
    "V100",
    "A100",
    "MI100",
    "CPU_HOST",
    "PCIE3",
    "PCIE4",
    "NVLINK",
]
