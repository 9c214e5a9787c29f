"""Host↔device transfer engine.

Sections 5.1–5.3 of the paper are arguments about *when data must cross
the PCIe/NVLink boundary*: rank-1 updates need no transfers, CPU-side cut
generation needs a device→host→device round trip, and tree-node reuse is
about keeping the matrix resident.  This engine prices and counts every
crossing so those claims become measurable quantities (experiments E4–E6).
"""

from __future__ import annotations

import importlib

from repro.device.clock import SimClock
from repro.device.spec import LinkSpec
from repro.errors import DeviceError
from repro.faults import injector as _faults
from repro.metrics import Metrics

#: The tracer's module, read per crossing as ``Device._charge`` reads it.
_tracing = importlib.import_module("repro.obs.span")


#: direction -> (crossings counter, bytes counter, time bucket).
_KEYS = {
    "h2d": ("transfers.h2d", "transfers.h2d_bytes", "time.h2d"),
    "d2h": ("transfers.d2h", "transfers.d2h_bytes", "time.d2h"),
}


class TransferEngine:
    """Models one link between host memory and one device's memory."""

    def __init__(self, link: LinkSpec, clock: SimClock, metrics: Metrics):
        self.link = link
        self.clock = clock
        self.metrics = metrics
        # Like Device._charge: straight into the registry's stores.
        self._counters = metrics.counters
        self._times = metrics.times
        #: Obs timeline row for this link's crossings (set by the device).
        self.track_of = lambda: "link"

    def _move(self, direction: str, nbytes: int) -> float:
        nbytes = int(nbytes)
        seconds = self.link.transfer_time(nbytes)
        counters, times = self._counters, self._times
        injector = _faults._ACTIVE
        overhead = 0.0
        if injector is not None:
            # Timed-out/corrupted crossings retry with backoff; their
            # wasted time precedes the crossing that finally lands.
            # Raises TransferFaultError before anything is charged.
            overhead = injector.transfer_attempt(direction, seconds)
            if overhead:
                counters["faults.transfer_retries"] += 1
                times["time.fault.transfer"] += overhead
        moved = seconds + overhead
        clock = self.clock
        start = clock._now
        if moved < 0.0:
            raise DeviceError(f"cannot advance clock by negative {moved}")
        clock._now = start + moved
        count_key, bytes_key, time_key = _KEYS[direction]
        counters[count_key] += 1
        counters[bytes_key] += nbytes
        times[time_key] += seconds
        tracer = _tracing._ACTIVE
        if tracer is not None:
            tracer.sim_span(
                direction,
                start,
                moved,
                self.track_of(),
                category="transfer",
                nbytes=nbytes,
            )
        return moved

    def host_to_device(self, nbytes: int) -> float:
        """Move ``nbytes`` host→device; returns the simulated seconds."""
        return self._move("h2d", nbytes)

    def device_to_host(self, nbytes: int) -> float:
        """Move ``nbytes`` device→host; returns the simulated seconds."""
        return self._move("d2h", nbytes)

    @property
    def total_transfers(self) -> int:
        """Total crossings in either direction."""
        return self.metrics.count("transfers.h2d") + self.metrics.count(
            "transfers.d2h"
        )

    @property
    def total_bytes(self) -> int:
        """Total bytes moved in either direction."""
        return self.metrics.count("transfers.h2d_bytes") + self.metrics.count(
            "transfers.d2h_bytes"
        )
