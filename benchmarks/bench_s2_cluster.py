"""S2 — the cluster scaling benchmark.

S1 (``bench_s1_serve_throughput.py``) measured one pool; S2 measures
the *sharded* tier: the identical heavy-tailed stream is replayed
against clusters of 1, 2 and 4 groups, and the artifact reports, per
shard count, aggregate throughput, the per-tier latency breakdown
(router / queue / batch / solve / end-to-end p50/p95/p99), cache
behaviour, and shed rates per priority class.

The workload (:func:`repro.cluster.s2_pool` under
:data:`repro.cluster.S2_SLO`) is the regime where sharding is the *only*
remaining lever: a shape-diverse pool of distinct LPs (per-group
batching is already saturated), arriving in Pareto bursts faster than
one group can drain.

Claims encoded:

- aggregate throughput scales with shard count — at least
  :data:`MIN_THROUGHPUT_SPEEDUP` at 4 shards, i.e. the saturated single
  pool really was the bottleneck and the host-tier router does not
  become the next one;
- p99 end-to-end latency does not grow with the shard ratio
  (sub-linear; in this load-fixed sweep it *collapses*, because the
  single-shard p99 is queue-dominated);
- the SLO admission controller never sheds gold traffic (the per-class
  shed rates are reported for every shard count; added capacity should
  only ever absorb load a single group could only refuse).

Besides the human-readable table, the payload (schema of
:mod:`repro.obs.bench`) is exported as ``BENCH_s2.json``.
"""

from repro.cluster import (
    PRIORITY_CLASSES,
    S2_SLO,
    ClusterService,
    TrafficSpec,
    heavy_tailed_stream,
    s2_pool,
)
from repro.obs.bench import bench_payload
from repro.reporting import format_seconds, render_table
from repro.serve import BatchingPolicy, replay

SHARD_COUNTS = (1, 2, 4)
NUM_REQUESTS = 400
POOL_SIZE = 96
#: Saturates a single group — that is the point: S2 measures what
#: sharding buys when one pool is the bottleneck.  Re-derived from
#: (2e-6 s, 128 LPs) for a cold knapsack batch that costs one lockstep
#: dual round: at the old load the 4-shard row carried 0.77 of the
#: offered rate, no longer service-bound.
MEAN_INTERARRIVAL = 7e-7
SEED = 0
WORKERS = 2
ROUTER = "hash"
POLICY = BatchingPolicy(max_batch_size=8, max_wait=2e-5, max_queue_depth=4096)
#: Peak-vs-base aggregate throughput must reach this factor.
MIN_THROUGHPUT_SPEEDUP = 3.0
#: The speedup claim needs a stream the shards cannot drain as it comes:
#: even the peak row must carry less than this share of the offered
#: rate ``1 / mean_interarrival``, or it measures the arrivals instead.
SERVICE_BOUND_SHARE = 0.6


def run_cluster_point(shards, stream):
    """Replay one stream against a ``shards``-group cluster; one row."""
    cluster = ClusterService(
        groups=shards,
        router=ROUTER,
        num_workers=WORKERS,
        policy=POLICY,
        slo=S2_SLO,
    )
    responses, rejected = replay(cluster, stream)
    completed = sum(1 for r in responses if r.ok)
    shed = sum(1 for r in responses if r.outcome.value == "shed")
    makespan = cluster.makespan
    row = {
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
    shard_counts=SHARD_COUNTS,
    num_requests=NUM_REQUESTS,
    pool_size=POOL_SIZE,
    mean_interarrival=MEAN_INTERARRIVAL,
):
    """Run the S2 shard sweep and assemble the artifact payload.

    The stream is generated once (same seed) and replayed against every
    shard count, so the sweep compares identical offered load.  The
    parameters exist for the tier-1 tests, which run a smaller sweep.
    """
    spec = TrafficSpec(
        num_requests=num_requests,
        mean_interarrival=mean_interarrival,
        seed=SEED,
    )
    stream = heavy_tailed_stream(s2_pool(pool_size, seed=SEED), spec)
    rows = [run_cluster_point(shards, stream) for shards in sorted(shard_counts)]
    base = rows[0]
    peak = rows[-1]
    shard_ratio = peak["shards"] / base["shards"]
    speedup = (
        peak["throughput"] / base["throughput"] if base["throughput"] else 0.0
    )
    p99_ratio = (
        peak["latency_p99"] / base["latency_p99"] if base["latency_p99"] else 0.0
    )
    summary = {
        "base_shards": base["shards"],
        "peak_shards": peak["shards"],
        "shard_ratio": shard_ratio,
        "throughput_speedup": speedup,
        # Sub-linear p99 growth: scaling shards by R must not scale p99 by R.
        "p99_ratio": p99_ratio,
        # Carried share of the offered rate at the peak shard count.
        "peak_offered_share": peak["throughput"] * mean_interarrival,
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
            "num_workers": WORKERS,
            "router": ROUTER,
            "mean_interarrival": mean_interarrival,
            "pareto_alpha": spec.pareto_alpha,
            "zipf_s": spec.zipf_s,
            "seed": SEED,
            "with_slo": True,
            "slo_p95_target": S2_SLO.p95_target,
            "slo_p99_target": S2_SLO.p99_target,
        },
        summary=summary,
    )


def test_s2_cluster(benchmark, report):
    payload = benchmark.pedantic(cluster_bench_payload, rounds=1, iterations=1)
    rows = payload["rows"]
    summary = payload["summary"]

    # Precondition: the stream saturates every row, the peak one included.
    assert summary["peak_offered_share"] < SERVICE_BOUND_SHARE
    # Claim 1: the saturated single pool was the bottleneck — four shards
    # carry at least MIN_THROUGHPUT_SPEEDUP times its throughput.
    assert summary["throughput_speedup"] >= MIN_THROUGHPUT_SPEEDUP
    # Claim 2: p99 grows sub-linearly in the shard ratio.
    assert summary["p99_sublinear"]
    # Claim 3: gold is never shed.
    assert summary["shed_rate_gold_peak"] == 0.0

    report.add_json("BENCH_s2.json", payload)

    table = render_table(
        [
            "shards",
            "req/s",
            "completed",
            "shed",
            "router p95",
            "queue p95",
            "batch p95",
            "solve p95",
            "p50",
            "p95",
            "p99",
            "shed g/s/b",
        ],
        [
            (
                r["shards"],
                round(r["throughput"]),
                r["completed"],
                r["shed"],
                format_seconds(r["router_p95"]),
                format_seconds(r["queue_wait_p95"]),
                format_seconds(r["batch_p95"]),
                format_seconds(r["solve_p95"]),
                format_seconds(r["latency_p50"]),
                format_seconds(r["latency_p95"]),
                format_seconds(r["latency_p99"]),
                "/".join(f"{r[f'shed_rate_{p}']:.0%}" for p in PRIORITY_CLASSES),
            )
            for r in rows
        ],
        title=(
            f"S2 — shard sweep, {NUM_REQUESTS} heavy-tailed requests over "
            f"{POOL_SIZE} shape-diverse LPs ({WORKERS} V100 workers per group): "
            f"throughput x{summary['throughput_speedup']:.2f}, "
            f"p99 ratio {summary['p99_ratio']:.3f} at "
            f"{summary['peak_shards']} shards"
        ),
    )
    report.add("S2_cluster", table)
