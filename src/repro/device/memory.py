"""Capacity-accounted device memory allocator.

Strategy 1 of the paper (§3) fails precisely because branch-and-cut trees
outgrow device memory; the allocator makes that failure mode *observable*
by accounting every allocation against the device's capacity and raising
:class:`DeviceMemoryError` on exhaustion.  Peak usage is tracked so
experiments can report footprints.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import DeviceMemoryError, InvalidHandleError


class MemoryPool:
    """Byte-granular allocator for a fixed-capacity memory."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = int(capacity)
        self._used = 0
        self._peak = 0
        self._next_handle = 1
        self._allocations: Dict[int, int] = {}

    @property
    def capacity(self) -> int:
        """Total bytes this memory can hold."""
        return self._capacity

    @property
    def used(self) -> int:
        """Bytes currently allocated."""
        return self._used

    @property
    def free(self) -> int:
        """Bytes currently available."""
        return self._capacity - self._used

    @property
    def peak(self) -> int:
        """High-water mark of allocated bytes."""
        return self._peak

    def alloc(self, nbytes: int) -> int:
        """Allocate ``nbytes``; returns an opaque handle.

        Raises :class:`DeviceMemoryError` when capacity would be exceeded.
        """
        if nbytes < 0:
            raise ValueError(f"cannot allocate negative bytes ({nbytes})")
        if self._used + nbytes > self._capacity:
            raise DeviceMemoryError(nbytes, self.free, self._capacity)
        handle = self._next_handle
        self._next_handle += 1
        self._allocations[handle] = nbytes
        self._used += nbytes
        self._peak = max(self._peak, self._used)
        return handle

    def size_of(self, handle: int) -> int:
        """Bytes held by a live allocation."""
        try:
            return self._allocations[handle]
        except KeyError:
            raise InvalidHandleError(f"unknown or freed handle {handle}") from None

    def freeing(self, handle: int) -> int:
        """Free an allocation; returns the bytes released."""
        nbytes = self.size_of(handle)
        del self._allocations[handle]
        self._used -= nbytes
        return nbytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemoryPool(used={self._used}/{self._capacity} B, "
            f"peak={self._peak} B, live={len(self._allocations)})"
        )
