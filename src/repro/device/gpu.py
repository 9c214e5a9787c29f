"""The simulated device: a meter for resident bytes, transfers and launches.

:class:`Device` is what the LP/MIP stack prices against.  It stands where
the CUDA runtime and cuBLAS/cuSOLVER/MAGMA stand in the paper, but it
*runs nothing*: the caller computes with :mod:`repro.la` / NumPy and then
launches the kernels it ran (``_charge`` of a :mod:`repro.device.kernels`
cost), in the order it ran them (DESIGN.md "The device is a meter"):

- data lives in *device arrays* whose bytes are accounted against the
  device's memory capacity (allocation fails with OOM, as strategy 1's
  tree-on-GPU eventually must);
- moving data in or out goes through the transfer engine and is counted
  (the §5.1–§5.3 transfer-minimization arguments become measurable);
- every launch charges its roofline cost to the simulated clock (and
  draws from the fault injector, when one is active);
- streams provide asynchronous launches with a work-and-span completion
  model: a sync completes at ``max(critical path, total work /
  max_concurrent_kernels)`` — which is how real concurrent kernels
  saturate a GPU (paper §5.5).

A `Device` constructed from :data:`repro.device.spec.CPU_HOST` models the
host itself: transfers are free and uncounted (data is already in host
memory), which lets one solver code path serve both paper strategies.
"""

from __future__ import annotations

import importlib
import itertools
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.device.clock import SimClock
from repro.device import kernels as K
from repro.device.memory import MemoryPool
from repro.device.spec import PCIE3, DeviceSpec
from repro.device.transfer import TransferEngine
from repro.errors import DeviceError, InvalidHandleError, StreamError
from repro.faults import injector as _faults
from repro.metrics import Metrics

#: The tracer's module (``repro.obs.span``, the function, shadows it on
#: the package): a launch reads its ``_ACTIVE`` without a call.
_tracing = importlib.import_module("repro.obs.span")

#: Distinguishes concurrently live devices on the shared obs timeline.
_DEVICE_SEQ = itertools.count()

#: Kernel costs one device keeps priced; at the cap the table is
#: dropped and refilled (a search prices a few hundred shapes).
PRICE_TABLE_CAP = 1024


def payload_nbytes(payload: np.ndarray) -> int:
    """Device-memory footprint of an array payload, in bytes.

    Anything that is not an array is sized by the caller (``nbytes=``).
    """
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    raise TypeError(f"cannot size payload of type {type(payload).__name__}")


class DeviceArray:
    """Handle to a payload resident in a device's memory."""

    __slots__ = ("device", "handle", "payload", "nbytes", "_alive")

    def __init__(self, device: "Device", handle: int, payload: object, nbytes: int):
        self.device = device
        self.handle = handle
        self.payload = payload
        self.nbytes = nbytes
        self._alive = True

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

    def __init__(self, spec: DeviceSpec):
        self.spec = spec
        self.clock = SimClock()
        self.metrics = Metrics()
        # _charge writes straight into the registry's stores.
        self._counters = self.metrics.counters
        self._times = self.metrics.times
        #: cost.key -> (spec it was priced on, duration, counter key, time key).
        self._prices: Dict[tuple, Tuple[DeviceSpec, float, str, str]] = {}
        self.memory = MemoryPool(spec.mem_capacity)
        self.transfers = TransferEngine(PCIE3, self.clock, self.metrics)
        #: Row name on the unified obs timeline (override for stable labels).
        self.obs_track = f"{spec.name}#{next(_DEVICE_SEQ)}"
        self.transfers.track_of = lambda: self.obs_track
        self._streams: List[Stream] = []
        self._epoch_start = self.clock.now
        self._epoch_work = 0.0

    # -- memory & transfers --------------------------------------------------

    def alloc(self, payload: object, nbytes: Optional[int] = None) -> DeviceArray:
        """Place a payload in device memory without any transfer cost.

        Used for results produced *on* the device; raises
        :class:`repro.errors.DeviceMemoryError` when capacity is exceeded.
        """
        size = payload_nbytes(payload) if nbytes is None else int(nbytes)
        handle = self.memory.alloc(size)
        self.metrics.inc("device.allocs")
        return DeviceArray(self, handle, payload, size)

    def upload(self, payload: object) -> DeviceArray:
        """Copy host data to the device (charged unless this is the host)."""
        arr = self.alloc(payload)
        if self.spec.is_accelerator:
            self.transfers.host_to_device(arr.nbytes)
        return arr

    def download(self, arr: DeviceArray) -> object:
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
        self._prices[cost.key] = (spec,) + priced
        return priced

    def _charge(self, cost: K.KernelCost, stream: Optional[Stream]) -> float:
        """Account one launch of ``cost``; returns the seconds charged.

        The single choke point, called once per launch.  What is
        constant per shape (roofline duration on this spec, the two
        metric keys) comes from the price table — keyed on the cost's
        ``key`` tuple, never mutated.  Per launch: the stream check
        (first, so a rejected launch leaves no trace), the fault draw,
        the counters and time buckets (``time.kernel`` accumulating in
        launch order), the clock/stream advance and the obs span.  The
        body makes no call of its own unless a fault injector or tracer
        is installed or the cost is not yet priced (DESIGN.md "A launch
        is one call").
        """
        if stream is not None and stream.device is not self:
            raise StreamError("stream belongs to a different device")
        try:
            spec, duration, count_key, time_key = self._prices[cost.key]
        except KeyError:
            spec = None
        if spec is not self.spec:
            # An entry is only good for the spec object it was priced on.
            duration, count_key, time_key = self._price(cost)
        counters, times = self._counters, self._times
        injector = _faults._ACTIVE
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
        start = clock._now
        if stream is None:
            # Synchronous launch: the host waits for completion.
            if duration < 0.0:
                raise DeviceError(f"cannot advance clock by negative {duration}")
            clock._now = start + duration
        else:
            ready = stream.ready
            if not start > ready:  # max(stream.ready, clock.now)
                start = ready
            stream.ready = start + duration
            self._epoch_work += duration
        tracer = _tracing._ACTIVE
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

    def kernel_count(self) -> int:
        """Launched kernels in total (``metrics.count("kernels.<name>")`` per name)."""
        return self.metrics.count("kernels.total")

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
