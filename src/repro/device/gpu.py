"""The simulated device facade: resident arrays, streams, exact kernels.

:class:`Device` is what the LP/MIP stack programs against.  It plays the
role cuBLAS/cuSOLVER/MAGMA + the CUDA runtime play in the paper:

- data lives in *device arrays* whose bytes are accounted against the
  device's memory capacity (allocation fails with OOM, as strategy 1's
  tree-on-GPU eventually must);
- moving data in or out goes through the transfer engine and is counted
  (the §5.1–§5.3 transfer-minimization arguments become measurable);
- every operation computes its result **exactly** via :mod:`repro.la`
  and charges its roofline cost to the simulated clock;
- streams provide asynchronous launches with a work-and-span completion
  model: a sync completes at ``max(critical path, total work /
  max_concurrent_kernels)`` — which is how real concurrent kernels
  saturate a GPU (paper §5.5).

A `Device` constructed from :data:`repro.device.spec.CPU_HOST` models the
host itself: transfers are free and uncounted (data is already in host
memory), which lets one solver code path serve both paper strategies.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.device.clock import SimClock
from repro.device import kernels as K
from repro.device.memory import MemoryPool
from repro.device.spec import PCIE3, DeviceSpec, LinkSpec
from repro.device.transfer import TransferEngine
from repro.errors import InvalidHandleError, StreamError
from repro.faults.injector import active as fault_active
from repro.la import flops as F
from repro.la.batch import batched_cholesky, batched_lu_factor, batched_lu_solve
from repro.la.dense import LUFactors, lu_factor, lu_solve
from repro.la.sparse import CSCMatrix, CSRMatrix
from repro.la.sparse_lu import SparseLU, sparse_lu_factor
from repro.la.updates import ProductFormInverse
from repro.metrics import Metrics
from repro import obs

#: Distinguishes concurrently live devices on the shared obs timeline.
_DEVICE_SEQ = itertools.count()

#: Kernel costs one device keeps priced; at the cap the table is
#: dropped and refilled (a search prices a few hundred shapes).
PRICE_TABLE_CAP = 1024

Payload = Union[np.ndarray, CSRMatrix, CSCMatrix, LUFactors, SparseLU, ProductFormInverse, Tuple]


def payload_nbytes(payload: Payload) -> int:
    """Device-memory footprint of a payload, in bytes."""
    if isinstance(payload, np.ndarray):
        return int(payload.size) * 8
    if isinstance(payload, (CSRMatrix, CSCMatrix)):
        return F.csr_bytes(payload.shape[0], payload.nnz)
    if isinstance(payload, LUFactors):
        return int(payload.lu.size) * 8 + int(payload.piv.size) * 8
    if isinstance(payload, SparseLU):
        return F.csr_bytes(payload.n, payload.factor_nnz) + payload.n * 8
    if isinstance(payload, ProductFormInverse):
        n = payload.n
        return n * n * 8 + payload.num_etas * (n + 1) * 8
    if isinstance(payload, tuple):
        return sum(payload_nbytes(p) for p in payload)
    raise TypeError(f"cannot size payload of type {type(payload).__name__}")


class DeviceArray:
    """Handle to a payload resident in a device's memory."""

    __slots__ = ("device", "handle", "payload", "nbytes", "_alive")

    def __init__(self, device: "Device", handle: int, payload: Payload, nbytes: int):
        self.device = device
        self.handle = handle
        self.payload = payload
        self.nbytes = nbytes
        self._alive = True

    @property
    def alive(self) -> bool:
        """False once freed."""
        return self._alive

    def require_on(self, device: "Device") -> None:
        """Raise unless this array is live and resident on ``device``."""
        if not self._alive:
            raise InvalidHandleError("device array used after free")
        if self.device is not device:
            raise InvalidHandleError(
                f"array resident on {self.device.spec.name}, "
                f"operation issued on {device.spec.name}"
            )


class Stream:
    """An ordered queue of kernel launches on one device."""

    __slots__ = ("device", "sid", "ready")

    def __init__(self, device: "Device", sid: int):
        self.device = device
        self.sid = sid
        #: Absolute simulated time at which this stream's last kernel ends.
        self.ready = device.clock.now


class Device:
    """One simulated compute device (GPU accelerator or CPU host)."""

    def __init__(
        self,
        spec: DeviceSpec,
        link: LinkSpec = PCIE3,
        clock: Optional[SimClock] = None,
        metrics: Optional[Metrics] = None,
    ):
        self.spec = spec
        self.clock = clock if clock is not None else SimClock()
        self.metrics = metrics if metrics is not None else Metrics()
        # _charge writes straight into the registry's stores.
        self._counters = self.metrics.counters
        self._times = self.metrics.times
        #: cost -> (spec it was priced on, duration, counter key, time key).
        self._prices: Dict[K.KernelCost, Tuple[DeviceSpec, float, str, str]] = {}
        self.memory = MemoryPool(spec.mem_capacity)
        self.transfers = TransferEngine(link, self.clock, self.metrics)
        #: Row name on the unified obs timeline (override for stable labels).
        self.obs_track = f"{spec.name}#{next(_DEVICE_SEQ)}"
        self.transfers.track_of = lambda: self.obs_track
        self._streams: List[Stream] = []
        self._epoch_start = self.clock.now
        self._epoch_work = 0.0

    # -- memory & transfers --------------------------------------------------

    def alloc(self, payload: Payload, nbytes: Optional[int] = None) -> DeviceArray:
        """Place a payload in device memory without any transfer cost.

        Used for results produced *on* the device; raises
        :class:`repro.errors.DeviceMemoryError` when capacity is exceeded.
        """
        size = payload_nbytes(payload) if nbytes is None else int(nbytes)
        handle = self.memory.alloc(size)
        self.metrics.inc("device.allocs")
        return DeviceArray(self, handle, payload, size)

    def upload(self, payload: Payload) -> DeviceArray:
        """Copy host data to the device (charged unless this is the host)."""
        arr = self.alloc(payload)
        if self.spec.is_accelerator:
            self.transfers.host_to_device(arr.nbytes)
        return arr

    def download(self, arr: DeviceArray) -> Payload:
        """Copy a device payload back to the host (charged on accelerators)."""
        arr.require_on(self)
        if self.spec.is_accelerator:
            self.transfers.device_to_host(arr.nbytes)
        return arr.payload

    def free(self, arr: DeviceArray) -> None:
        """Release a device array's memory."""
        arr.require_on(self)
        self.memory.freeing(arr.handle)
        arr._alive = False

    # -- streams & launch accounting ------------------------------------------

    def create_stream(self) -> Stream:
        """Create a new asynchronous stream."""
        stream = Stream(self, len(self._streams))
        self._streams.append(stream)
        return stream

    def _price(self, cost: K.KernelCost) -> Tuple[float, str, str]:
        """Price ``cost`` on the current spec and remember the entry."""
        if len(self._prices) >= PRICE_TABLE_CAP:
            self._prices.clear()
        spec = self.spec
        priced = (
            cost.duration(spec),
            f"kernels.{cost.name}",
            f"time.kernel.{cost.name}",
        )
        self._prices[cost] = (spec,) + priced
        return priced

    def _charge(self, cost: K.KernelCost, stream: Optional[Stream]) -> float:
        """Account one launch of ``cost``; returns the seconds charged.

        The single choke point, called once per launch.  What is
        constant per shape (roofline duration on this spec, the two
        metric keys) comes from the price table — keyed on the cost's
        value, never mutated.  Per launch: the stream check (first, so a
        rejected launch leaves no trace), the fault draw, the counters
        and time buckets (``time.kernel`` accumulating in launch order),
        the clock/stream advance and the obs span.
        """
        if stream is not None and stream.device is not self:
            raise StreamError("stream belongs to a different device")
        try:
            spec, duration, count_key, time_key = self._prices[cost]
        except KeyError:
            spec = None
        if spec is not self.spec:
            # An entry is only good for the spec object it was priced on.
            duration, count_key, time_key = self._price(cost)
        counters, times = self._counters, self._times
        injector = fault_active()
        if injector is not None:
            # Failed launches retry in place; their partial work plus
            # backoff rides on top of the successful launch.  Raises a
            # FaultError (unrecoverable) before anything is charged.
            wasted = injector.kernel_attempt(cost, self.spec)
            if wasted:
                counters["faults.kernel_retries"] += 1
                times["time.fault.kernel"] += wasted
                duration += wasted
        counters[count_key] += 1
        counters["kernels.total"] += 1
        times[time_key] += duration
        times["time.kernel"] += duration
        clock = self.clock
        if stream is None:
            # Synchronous launch: the host waits for completion.
            start = clock.now
            clock.advance(duration)
        else:
            start = max(stream.ready, clock.now)
            stream.ready = start + duration
            self._epoch_work += duration
        tracer = obs.active()
        if tracer is not None:
            tracer.sim_span(
                cost.name, start, duration, self.obs_track, category="kernel"
            )
        return duration

    def synchronize(self) -> float:
        """Block until all streams drain; returns the new simulated time.

        Completion time is ``max(span, work / max_concurrent_kernels)``
        measured from the epoch start — full overlap while concurrency
        lasts, throughput-bound once the device saturates.
        """
        span_end = max([self.clock.now] + [s.ready for s in self._streams])
        throughput_end = self._epoch_start + self._epoch_work / self.spec.max_concurrent_kernels
        end = max(span_end, throughput_end)
        self.clock.advance_to(end)
        for stream in self._streams:
            stream.ready = end
        self._epoch_start = end
        self._epoch_work = 0.0
        return end

    # -- dense kernels --------------------------------------------------------

    def gemm(self, a: DeviceArray, b: DeviceArray, stream: Optional[Stream] = None) -> DeviceArray:
        """C = A @ B on device."""
        a.require_on(self)
        b.require_on(self)
        m, k = a.payload.shape
        k2, n = b.payload.shape
        self._charge(K.gemm_kernel(m, n, k), stream)
        return self.alloc(a.payload @ b.payload)

    def gemv(self, a: DeviceArray, x: DeviceArray, stream: Optional[Stream] = None) -> DeviceArray:
        """y = A @ x on device."""
        a.require_on(self)
        x.require_on(self)
        m, n = a.payload.shape
        self._charge(K.gemv_kernel(m, n), stream)
        return self.alloc(a.payload @ x.payload)

    def dot(self, x: DeviceArray, y: DeviceArray, stream: Optional[Stream] = None) -> float:
        """Scalar x·y.

        The scalar lands in pinned host memory as part of the kernel
        (cublas*Dot semantics); it is not counted as a matrix transfer.
        """
        x.require_on(self)
        y.require_on(self)
        self._charge(K.dot_kernel(x.payload.shape[0]), stream)
        return float(x.payload @ y.payload)

    def axpy(self, alpha: float, x: DeviceArray, y: DeviceArray, stream: Optional[Stream] = None) -> None:
        """In-place y += alpha·x on device."""
        x.require_on(self)
        y.require_on(self)
        self._charge(K.axpy_kernel(x.payload.shape[0]), stream)
        y.payload += alpha * x.payload

    def lu_factor(self, a: DeviceArray, stream: Optional[Stream] = None) -> DeviceArray:
        """Dense LU factorization (cusolverDnDgetrf analogue)."""
        a.require_on(self)
        n = a.payload.shape[0]
        self._charge(K.getrf_kernel(n), stream)
        return self.alloc(lu_factor(a.payload))

    def lu_solve(
        self,
        factors: DeviceArray,
        b: DeviceArray,
        transposed: bool = False,
        stream: Optional[Stream] = None,
    ) -> DeviceArray:
        """Dense LU solve (two triangular solves)."""
        factors.require_on(self)
        b.require_on(self)
        n = factors.payload.n
        self._charge(K.trsv_kernel(n), stream)
        self._charge(K.trsv_kernel(n), stream)
        return self.alloc(lu_solve(factors.payload, b.payload, transposed=transposed))

    # -- product-form-of-inverse (basis management, §5.1) ----------------------

    def pfi_create(self, basis_matrix: DeviceArray) -> DeviceArray:
        """Factor a basis matrix into a device-resident PFI object."""
        basis_matrix.require_on(self)
        n = basis_matrix.payload.shape[0]
        self._charge(K.getrf_kernel(n), None)
        return self.alloc(ProductFormInverse(basis_matrix.payload))

    def pfi_ftran(self, pfi: DeviceArray, b: DeviceArray, stream: Optional[Stream] = None) -> DeviceArray:
        """Solve B x = b with the resident PFI: LU solve + fused eta chain."""
        pfi.require_on(self)
        b.require_on(self)
        obj: ProductFormInverse = pfi.payload
        self._charge(K.trsv_kernel(obj.n), stream)
        self._charge(K.trsv_kernel(obj.n), stream)
        if obj.num_etas:
            self._charge(K.eta_chain_kernel(obj.n, obj.num_etas), stream)
        return self.alloc(obj.ftran(b.payload))

    def pfi_btran(self, pfi: DeviceArray, c: DeviceArray, stream: Optional[Stream] = None) -> DeviceArray:
        """Solve Bᵀ y = c with the resident PFI."""
        pfi.require_on(self)
        c.require_on(self)
        obj: ProductFormInverse = pfi.payload
        if obj.num_etas:
            self._charge(K.eta_chain_kernel(obj.n, obj.num_etas), stream)
        self._charge(K.trsv_kernel(obj.n), stream)
        self._charge(K.trsv_kernel(obj.n), stream)
        return self.alloc(obj.btran(c.payload))

    def pfi_update(self, pfi: DeviceArray, ftran_col: DeviceArray, pos: int) -> None:
        """Append one eta (a rank-1 basis change) — zero transfers.

        This is the paper's §5.1 inner loop: resident data, O(n) work.
        """
        pfi.require_on(self)
        ftran_col.require_on(self)
        obj: ProductFormInverse = pfi.payload
        obj.update(ftran_col.payload, pos)
        self._charge(K.axpy_kernel(obj.n), None)
        grow = (obj.n + 1) * 8
        self.memory.freeing(pfi.handle)
        pfi.handle = self.memory.alloc(pfi.nbytes + grow)
        pfi.nbytes += grow
        self.metrics.inc("pfi.updates")

    def pfi_refactorize(self, pfi: DeviceArray, basis_matrix: DeviceArray) -> None:
        """Refactorize the resident basis, dropping the eta chain."""
        pfi.require_on(self)
        basis_matrix.require_on(self)
        obj: ProductFormInverse = pfi.payload
        self._charge(K.getrf_kernel(obj.n), None)
        obj.refactorize(basis_matrix.payload)
        new_bytes = payload_nbytes(obj)
        self.memory.freeing(pfi.handle)
        pfi.handle = self.memory.alloc(new_bytes)
        pfi.nbytes = new_bytes
        self.metrics.inc("pfi.refactorizations")

    # -- sparse kernels ---------------------------------------------------------

    def spmv(self, a: DeviceArray, x: DeviceArray, stream: Optional[Stream] = None) -> DeviceArray:
        """CSR sparse matrix-vector product."""
        a.require_on(self)
        x.require_on(self)
        csr: CSRMatrix = a.payload
        self._charge(K.spmv_kernel(csr.shape[0], csr.nnz), stream)
        return self.alloc(csr.matvec(x.payload))

    def sparse_lu(self, a: DeviceArray, stream: Optional[Stream] = None) -> DeviceArray:
        """Level-scheduled sparse LU (GLU analogue)."""
        a.require_on(self)
        csc: CSCMatrix = a.payload
        factors = sparse_lu_factor(csc)
        self._charge(
            K.sparse_getrf_kernel(csc.shape[0], factors.factor_nnz, factors.num_levels),
            stream,
        )
        return self.alloc(factors)

    def sparse_solve(self, factors: DeviceArray, b: DeviceArray, stream: Optional[Stream] = None) -> DeviceArray:
        """Sparse triangular solves from a resident sparse LU."""
        factors.require_on(self)
        b.require_on(self)
        slu: SparseLU = factors.payload
        self._charge(K.sparse_trsv_kernel(slu.n, slu.l.nnz, slu.num_levels), stream)
        self._charge(K.sparse_trsv_kernel(slu.n, slu.u.nnz, slu.num_levels), stream)
        return self.alloc(slu.solve(b.payload))

    # -- batched kernels (MAGMA analogue, §4.3/§5.5) -----------------------------

    def batched_lu_factor(self, batch: DeviceArray, stream: Optional[Stream] = None) -> DeviceArray:
        """One launch factoring a (k, n, n) batch."""
        batch.require_on(self)
        k, n, _ = batch.payload.shape
        self._charge(K.batched_getrf_kernel(k, n), stream)
        return self.alloc(batched_lu_factor(batch.payload))

    def batched_lu_solve(self, factors: DeviceArray, b: DeviceArray, stream: Optional[Stream] = None) -> DeviceArray:
        """One launch solving a (k, n) batch of right-hand sides."""
        factors.require_on(self)
        b.require_on(self)
        lu, piv = factors.payload
        k, n = b.payload.shape
        self._charge(K.batched_trsv_kernel(k, n), stream)
        self._charge(K.batched_trsv_kernel(k, n), stream)
        return self.alloc(batched_lu_solve(lu, piv, b.payload))

    def batched_cholesky(self, batch: DeviceArray, stream: Optional[Stream] = None) -> DeviceArray:
        """One launch Cholesky-factoring a (k, n, n) batch."""
        batch.require_on(self)
        k, n, _ = batch.payload.shape
        self._charge(K.batched_potrf_kernel(k, n), stream)
        return self.alloc(batched_cholesky(batch.payload))

    # -- introspection ----------------------------------------------------------

    @property
    def busy_seconds(self) -> float:
        """Total simulated seconds the device spent executing kernels."""
        return self.metrics.time("time.kernel")

    @property
    def energy_joules(self) -> float:
        """Busy-time energy at the device's TDP (paper §2.2).

        Idle power is excluded: the comparison of interest is energy per
        unit of useful work across devices/strategies.
        """
        return self.busy_seconds * self.spec.tdp_watts

    def kernel_count(self, name: Optional[str] = None) -> int:
        """Launched kernels (of one name, or total)."""
        key = "kernels.total" if name is None else f"kernels.{name}"
        return self.metrics.count(key)

    def summary(self) -> Dict[str, float]:
        """Headline accounting for reports."""
        return {
            "sim_time_s": self.clock.now,
            "kernels": self.metrics.count("kernels.total"),
            "h2d": self.metrics.count("transfers.h2d"),
            "d2h": self.metrics.count("transfers.d2h"),
            "bytes_moved": self.transfers.total_bytes,
            "mem_peak_bytes": self.memory.peak,
            "energy_joules": self.energy_joules,
        }
