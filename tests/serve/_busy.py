"""Busy workers for queueing tests (test-only).

A service flushes a request the moment a worker is free, so a test that
wants a queue — a batch to fill, a duplicate to coalesce, a timer or a
timeout to fire — builds it behind workers that are busy.
:func:`occupy_workers` makes every worker of a :class:`SolveService`,
or of each live group of a :class:`ClusterService`, busy until a given
simulated time, exactly as if it were still running an earlier batch.
"""

from repro.cluster import ClusterService


def occupy_workers(service, until: float) -> None:
    """Keep every worker of ``service`` busy until simulated ``until``."""
    services = (
        service._groups.values() if isinstance(service, ClusterService) else [service]
    )
    for svc in services:
        for device in svc.pool.group.devices:
            device.clock.advance_to(until)
