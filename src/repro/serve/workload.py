"""Synthetic request streams and load-sweep helpers for the service.

The serving benchmark (S1), the ``serve_traffic`` example and the
tracing recipe in ``docs/observability.md`` all drive the service
through these helpers: seeded problem pools, deterministic (optionally bursty)
arrival processes, a replay loop that respects admission rejections,
and a one-call :func:`run_load` that returns the per-stage summary a
throughput table needs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ServiceSaturated
from repro.problems.knapsack import generate_knapsack
from repro.serve.batching import BatchingPolicy
from repro.serve.request import Problem, SolveResponse
from repro.serve.service import FrontDoor, SolveService

#: One stream element: (arrival time, problem), optionally followed by
#: the priority class a cluster front door admits it under.
StreamItem = Tuple[float, Problem]


def lp_pool(num_distinct: int, num_items: int = 12, seed: int = 0) -> List[Problem]:
    """Distinct small-LP pool: knapsack relaxations (the §5.5 workload)."""
    return [
        generate_knapsack(num_items, seed=seed * 1000 + i).relaxation()
        for i in range(num_distinct)
    ]


def mip_pool(num_distinct: int, num_items: int = 10, seed: int = 0) -> List[Problem]:
    """Distinct small-MIP pool: 0/1 knapsacks."""
    return [
        generate_knapsack(num_items, seed=seed * 1000 + i)
        for i in range(num_distinct)
    ]


def synthetic_stream(
    problems: Sequence[Problem],
    num_requests: int,
    mean_interarrival: float,
    seed: int = 0,
    burst_length: int = 1,
    burst_gap: float = 0.0,
) -> List[StreamItem]:
    """Deterministic arrival stream drawing problems uniformly from a pool.

    Interarrivals are exponential with the given mean; with
    ``burst_length > 1`` every ``burst_length``-th request is preceded by
    an extra ``burst_gap`` idle period, which produces the on/off bursty
    shape real traffic has.  Duplicate pressure comes from the pool
    size: ``num_requests >> len(problems)`` makes a duplicate-heavy
    stream for cache experiments.
    """
    rng = np.random.default_rng(seed)
    t = 0.0
    out: List[StreamItem] = []
    for i in range(num_requests):
        t += float(rng.exponential(mean_interarrival))
        if burst_length > 1 and i and i % burst_length == 0:
            t += burst_gap
        problem = problems[int(rng.integers(len(problems)))]
        out.append((t, problem))
    return out


def replay(
    service: FrontDoor,
    stream: Sequence[StreamItem],
    timeout: Optional[float] = None,
) -> Tuple[List[SolveResponse], int]:
    """Submit a stream in arrival order and drain the service.

    ``service`` is a :class:`SolveService` or a
    :class:`repro.cluster.ClusterService`; items of a cluster stream
    carry their priority class as a third element.  Saturation
    rejections are counted, not raised (shed responses are *not*
    rejections — they are delivered answers).  Returns
    ``(responses, num_rejected)``.
    """
    rejected = 0
    for at, problem, *priority in stream:
        extra = {"priority": priority[0]} if priority else {}
        try:
            service.submit(problem, at=at, timeout=timeout, **extra)
        except ServiceSaturated:
            rejected += 1
    responses = service.drain()
    return responses, rejected


def run_load(
    stream: Sequence[StreamItem],
    policy: Optional[BatchingPolicy] = None,
    num_workers: int = 2,
) -> Dict:
    """Replay a stream through a fresh service; return the summary row.

    The summary carries throughput (completed requests per simulated
    second of makespan) plus the per-stage means the S1 tables report,
    and the service itself for deeper inspection.
    """
    service = SolveService(policy=policy, num_workers=num_workers)
    responses, rejected = replay(service, stream)
    completed = [r for r in responses if r.ok]
    makespan = service.makespan
    n_done = len(completed)

    def mean(values: List[float]) -> float:
        return float(np.mean(values)) if values else 0.0

    return {
        "offered": len(stream),
        "completed": n_done,
        "rejected": rejected,
        "timeouts": service.metrics.count("serve.timeouts"),
        "cache_hits": service.metrics.count("serve.cache.hits"),
        "coalesced": service.metrics.count("serve.coalesced"),
        "batches": service.metrics.count("serve.batches"),
        "makespan": makespan,
        "throughput": n_done / makespan if makespan > 0 else 0.0,
        "mean_queue_wait": mean([r.queue_wait for r in completed]),
        "mean_assembly": mean([r.assembly_wait for r in completed]),
        "mean_device": mean([r.device_time for r in completed if not r.cached]),
        "mean_latency": mean([r.latency for r in completed]),
        "p50_latency": service.metrics.percentile("serve.latency", 50.0),
        "p95_latency": service.metrics.percentile("serve.latency", 95.0),
        "p99_latency": service.metrics.percentile("serve.latency", 99.0),
        "dedup_rate": service.stats()["derived"]["dedup_rate"],
        "service": service,
    }
