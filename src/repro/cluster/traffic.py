"""Heavy-tailed traffic for the cluster tier.

The S1 streams (:mod:`repro.serve.workload`) use exponential
interarrivals — fine for one pool, but horizontal sharding earns its
keep under the traffic real services see: *bursty* arrivals (Pareto
interarrivals: most gaps tiny, a heavy tail of long lulls, so load
comes in clumps) and *skewed* popularity (Zipf: a few hot problems
dominate, a long tail of one-offs).  The hot head stresses the cache /
coalescing path and the consistent-hash placement; the distinct tail is
the real device work sharding spreads out.

Every request also carries a priority class drawn from a configurable
``gold``/``silver``/``bronze`` mix, which is what the SLO admission
controller sheds by.

Everything is seeded and deterministic: the same
:class:`TrafficSpec` always produces the identical stream, so shard
sweeps compare like with like.

:data:`S2_SLO` and :func:`s2_pool` define the S2 workload itself — the
regime where sharding is the *only* remaining lever — shared by the
experiment (``benchmarks/bench_s2_cluster.py``), the perf ledger and
the golden cluster streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ServiceError
from repro.serve.request import Problem
from repro.serve.workload import lp_pool
from repro.cluster.admission import PRIORITY_CLASSES, SLOPolicy

#: S2 default SLO: tuned so a saturated single group breaches it (and
#: sheds) while four groups mostly meet it — the shed-rate column is
#: the admission controller reacting to real tail latency, not a prop.
S2_SLO = SLOPolicy(p95_target=1e-2, p99_target=3e-2)


def s2_pool(
    pool_size: int = 128,
    base_items: int = 40,
    shape_spread: int = 32,
    seed: int = 0,
) -> List[Problem]:
    """Shape-diverse distinct-LP pool: the batching-saturated regime.

    ``shape_spread`` distinct knapsack sizes cycle through the pool, so
    same-shape batches top out at ``pool_size / shape_spread`` members
    no matter how large the batch cap is — per-group batching is
    already saturated (the Gurung & Ray ceiling), which is precisely
    when horizontal sharding is the remaining throughput lever.
    """
    problems: List[Problem] = []
    for i in range(pool_size):
        problems.extend(
            lp_pool(1, num_items=base_items + (i % shape_spread), seed=seed + i)
        )
    return problems


@dataclass(frozen=True)
class TrafficSpec:
    """Shape of one heavy-tailed request stream."""

    num_requests: int = 200
    #: Mean interarrival gap in simulated seconds.
    mean_interarrival: float = 1e-3
    #: Pareto tail index for interarrivals; smaller → heavier bursts.
    #: Must be > 1 so the mean exists.
    pareto_alpha: float = 1.5
    #: Zipf exponent for problem popularity; 0 → uniform, larger →
    #: hotter head.
    zipf_s: float = 1.1
    #: Probability mix over (gold, silver, bronze); must sum to 1.
    priority_mix: Tuple[float, float, float] = (0.2, 0.5, 0.3)
    seed: int = 0

    def __post_init__(self):
        if self.num_requests < 1:
            raise ServiceError("num_requests must be >= 1")
        if not self.mean_interarrival > 0:
            raise ServiceError("mean_interarrival must be positive")
        if not self.pareto_alpha > 1.0:
            raise ServiceError(
                "pareto_alpha must be > 1 (finite-mean interarrivals)"
            )
        if self.zipf_s < 0:
            raise ServiceError("zipf_s must be >= 0")
        if len(self.priority_mix) != len(PRIORITY_CLASSES):
            raise ServiceError(
                f"priority_mix needs {len(PRIORITY_CLASSES)} entries"
            )
        if abs(sum(self.priority_mix) - 1.0) > 1e-9:
            raise ServiceError("priority_mix must sum to 1")


def heavy_tailed_stream(
    problems: Sequence[Problem], spec: TrafficSpec
) -> List[Tuple[float, Problem, str]]:
    """Deterministic Pareto-interarrival, Zipf-popularity stream.

    Elements are ``(arrival time, problem, priority class)`` — what
    :func:`repro.serve.workload.replay` submits to a cluster.

    Interarrival gaps are Lomax (Pareto II) samples scaled to the
    requested mean: ``mean * (alpha - 1) * pareto(alpha)``.  Problem
    popularity follows a truncated Zipf over the pool (rank ``r`` drawn
    with weight ``1 / r**s``), with ranks shuffled once per stream so
    the "hot" problems are not always the pool's first entries.
    """
    if not problems:
        raise ServiceError("heavy_tailed_stream needs a non-empty pool")
    rng = np.random.default_rng(spec.seed)
    n_pool = len(problems)
    weights = 1.0 / np.arange(1, n_pool + 1, dtype=float) ** spec.zipf_s
    weights /= weights.sum()
    rank_to_problem = rng.permutation(n_pool)
    scale = spec.mean_interarrival * (spec.pareto_alpha - 1.0)
    gaps = scale * rng.pareto(spec.pareto_alpha, size=spec.num_requests)
    arrivals = np.cumsum(gaps)
    ranks = rng.choice(n_pool, size=spec.num_requests, p=weights)
    priorities = rng.choice(
        len(PRIORITY_CLASSES), size=spec.num_requests, p=list(spec.priority_mix)
    )
    return [
        (
            float(arrivals[i]),
            problems[int(rank_to_problem[ranks[i]])],
            PRIORITY_CLASSES[int(priorities[i])],
        )
        for i in range(spec.num_requests)
    ]
