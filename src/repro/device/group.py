"""Multi-GPU device groups and the price of their collective.

Paper §3.1 notes that an all-GPU design "can be fast if direct GPU to
GPU communication is supported over the network by the parallel system
architecture", and Summit-class nodes wire their GPUs with NVLink.
:class:`DeviceGroup` is a set of same-spec devices with aligned clocks —
the serving pool is one group, a worker per member; a sharded LP
(strategy 4) prices its intra-node reduction over a peer link with
:func:`allreduce_seconds` instead of host-mediated MPI.
"""

from __future__ import annotations

from typing import List

import math

from repro.device.gpu import Device
from repro.device.spec import DeviceSpec, LinkSpec, V100
from repro.errors import DeviceError


def allreduce_seconds(link: LinkSpec, k: int, nbytes: int) -> float:
    """Cost of an allreduce over ``k`` peers: best of tree and ring."""
    if k <= 1:
        return 0.0
    depth = max(1, math.ceil(math.log2(k)))
    tree = 2 * depth * link.transfer_time(nbytes)
    chunk = max(1, nbytes // k)
    ring = 2 * (k - 1) * link.transfer_time(chunk)
    return min(tree, ring)


class DeviceGroup:
    """``k`` same-spec devices."""

    def __init__(self, num_devices: int, spec: DeviceSpec = V100):
        if num_devices < 1:
            raise DeviceError(f"group needs >= 1 device, got {num_devices}")
        self.devices: List[Device] = [Device(spec) for _ in range(num_devices)]

    @property
    def size(self) -> int:
        """Devices in the group."""
        return len(self.devices)

    def device(self, rank: int) -> Device:
        """Member device by index."""
        if not 0 <= rank < self.size:
            raise DeviceError(f"device rank {rank} out of range 0..{self.size - 1}")
        return self.devices[rank]

    def synchronize(self) -> float:
        """Align all member clocks to the group maximum."""
        for d in self.devices:
            d.synchronize()
        finish = max(d.clock.now for d in self.devices)
        for d in self.devices:
            d.clock.advance_to(finish)
        return finish

    @property
    def makespan(self) -> float:
        """Slowest member's clock."""
        return max(d.clock.now for d in self.devices)
