"""S2 — the cluster scaling benchmark.

S1 (:mod:`repro.serve.workload`) measured one pool; S2 measures the
*sharded* tier: the identical heavy-tailed stream is replayed against
clusters of 1, 2, 4, … groups, and the artifact reports, per shard
count, aggregate throughput, the per-tier latency breakdown
(router / queue / batch / solve / end-to-end p50/p95/p99), cache
behaviour, and shed rates per priority class.

The workload is the regime where sharding is the *only* remaining
lever: a shape-diverse pool of distinct LPs (per-group batching is
already saturated — batches cannot grow past the handful of
same-shape problems in flight, the Gurung & Ray ceiling), arriving in
Pareto bursts faster than one group can drain.

Headline claims (gated by ``repro cluster-bench --check-speedup``):

- aggregate throughput scales with shard count — ≥3x at 4 shards is
  the acceptance bar, i.e. the saturated single pool really was the
  bottleneck and the host-tier router does not become the next one;
- p99 end-to-end latency does not grow with the shard ratio
  (sub-linear; in this load-fixed sweep it *collapses*, because the
  single-shard p99 is queue-dominated);
- the SLO admission controller sheds strictly less traffic as shards
  are added — horizontal capacity absorbs load that a single group
  could only refuse.

Artifact: ``BENCH_s2.json`` in the :mod:`repro.obs.bench` schema.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.bench import bench_payload
from repro.serve.batching import BatchingPolicy
from repro.serve.request import Problem
from repro.serve.workload import lp_pool, replay
from repro.cluster.admission import PRIORITY_CLASSES, SLOPolicy
from repro.cluster.service import ClusterService
from repro.cluster.traffic import TrafficSpec, heavy_tailed_stream

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
    already saturated, which is precisely when horizontal sharding is
    the remaining throughput lever.
    """
    problems: List[Problem] = []
    for i in range(pool_size):
        problems.extend(
            lp_pool(1, num_items=base_items + (i % shape_spread), seed=seed + i)
        )
    return problems


def run_cluster_point(
    shards: int,
    stream: Sequence[Tuple[float, Problem, str]],
    num_workers: int = 2,
    router: str = "hash",
    slo: Optional[SLOPolicy] = S2_SLO,
    max_batch_size: int = 8,
    max_wait: float = 2e-5,
    max_queue_depth: int = 4096,
) -> Dict[str, Any]:
    """Replay one stream against a ``shards``-group cluster; one row."""
    cluster = ClusterService(
        groups=shards,
        router=router,
        num_workers=num_workers,
        policy=BatchingPolicy(
            max_batch_size=max_batch_size,
            max_wait=max_wait,
            max_queue_depth=max_queue_depth,
        ),
        slo=slo,
    )
    responses, rejected = replay(cluster, stream)
    completed = sum(1 for r in responses if r.ok)
    shed = sum(1 for r in responses if r.outcome.value == "shed")
    makespan = cluster.makespan
    row: Dict[str, Any] = {
        "shards": shards,
        "requests": len(stream),
        "completed": completed,
        "shed": shed,
        "rejected": rejected,
        "makespan": makespan,
        "throughput": completed / makespan if makespan > 0 else 0.0,
        "router_spills": getattr(cluster.router, "spills", 0),
        "affinity_hits": cluster.metrics.count("cluster.affinity_hits"),
        "cache_hit_rate": cluster.cache.hit_rate,
        "cache_local_hits": cluster.cache.local_hits,
        "cache_remote_hits": cluster.cache.remote_hits,
    }
    derived = cluster.stats()["derived"]
    for tier, percentiles in derived["tiers"].items():
        for q, value in percentiles.items():
            row[f"{tier}_{q}"] = value
    for priority, rate in derived["shed_rate"].items():
        row[f"shed_rate_{priority}"] = rate
    return row


def cluster_bench_payload(
    shard_counts: Sequence[int] = (1, 2, 4),
    num_requests: int = 400,
    pool_size: int = 128,
    num_workers: int = 2,
    router: str = "hash",
    mean_interarrival: float = 1e-5,
    seed: int = 0,
    with_slo: bool = True,
) -> Dict[str, Any]:
    """Run the S2 shard sweep and assemble the artifact payload.

    The stream is generated once (same seed) and replayed against every
    shard count, so the sweep compares identical offered load.  The
    default interarrival mean saturates a single group — that is the
    point: S2 measures what sharding buys when one pool is the
    bottleneck.
    """
    problems = s2_pool(pool_size, seed=seed)
    spec = TrafficSpec(
        num_requests=num_requests,
        mean_interarrival=mean_interarrival,
        seed=seed,
    )
    stream = heavy_tailed_stream(problems, spec)
    slo = S2_SLO if with_slo else None
    rows: List[Dict[str, Any]] = [
        run_cluster_point(
            shards,
            stream,
            num_workers=num_workers,
            router=router,
            slo=slo,
        )
        for shards in sorted(shard_counts)
    ]
    base = rows[0]
    peak = rows[-1]
    shard_ratio = peak["shards"] / base["shards"]
    speedup = (
        peak["throughput"] / base["throughput"] if base["throughput"] else 0.0
    )
    p99_ratio = (
        peak["latency_p99"] / base["latency_p99"] if base["latency_p99"] else 0.0
    )
    summary: Dict[str, Any] = {
        "base_shards": base["shards"],
        "peak_shards": peak["shards"],
        "shard_ratio": shard_ratio,
        "throughput_speedup": speedup,
        # Sub-linear p99 growth: scaling shards by R must not scale p99 by R.
        "p99_ratio": p99_ratio,
        "p99_sublinear": bool(p99_ratio < shard_ratio),
        "shed_monotone": bool(
            all(rows[i]["shed"] >= rows[i + 1]["shed"] for i in range(len(rows) - 1))
        ),
    }
    for priority in PRIORITY_CLASSES:
        summary[f"shed_rate_{priority}_base"] = base[f"shed_rate_{priority}"]
        summary[f"shed_rate_{priority}_peak"] = peak[f"shed_rate_{priority}"]
    return bench_payload(
        name="s2-cluster",
        rows=rows,
        params={
            "shard_counts": ",".join(str(s) for s in sorted(shard_counts)),
            "num_requests": num_requests,
            "pool_size": pool_size,
            "num_workers": num_workers,
            "router": router,
            "mean_interarrival": mean_interarrival,
            "pareto_alpha": spec.pareto_alpha,
            "zipf_s": spec.zipf_s,
            "seed": seed,
            "with_slo": with_slo,
            "slo_p95_target": S2_SLO.p95_target if with_slo else None,
            "slo_p99_target": S2_SLO.p99_target if with_slo else None,
        },
        summary=summary,
    )
