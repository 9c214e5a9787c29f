"""The S2 cluster benchmark: payload schema, determinism, scaling."""

from benchmarks.bench_s2_cluster import cluster_bench_payload, run_cluster_point
from repro.cluster import TrafficSpec, heavy_tailed_stream, s2_pool
from repro.obs.bench import validate_bench_payload

#: Small but saturating: enough requests that one group queues.
KW = dict(
    shard_counts=(1, 2),
    num_requests=120,
    pool_size=48,
    mean_interarrival=5e-6,
)


class TestS2Pool:
    def test_pool_is_shape_diverse(self):
        pool = s2_pool(24, base_items=10, shape_spread=8, seed=0)
        shapes = {p.c.shape for p in pool}
        assert len(shapes) == 8


class TestRunClusterPoint:
    def test_row_has_the_benchmark_columns(self):
        problems = s2_pool(24, seed=0)
        stream = heavy_tailed_stream(
            problems, TrafficSpec(num_requests=60, mean_interarrival=4e-5)
        )
        row = run_cluster_point(2, stream)
        for column in (
            "shards",
            "requests",
            "completed",
            "shed",
            "rejected",
            "makespan",
            "throughput",
            "router_spills",
            "affinity_hits",
            "latency_p50",
            "latency_p95",
            "latency_p99",
            "router_p95",
            "queue_wait_p95",
            "batch_p95",
            "solve_p95",
            "shed_rate_gold",
            "shed_rate_silver",
            "shed_rate_bronze",
        ):
            assert column in row, column
        assert row["shards"] == 2
        assert row["requests"] == 60
        assert row["completed"] + row["shed"] + row["rejected"] <= row["requests"]


class TestPayload:
    def test_payload_validates_and_scales(self):
        payload = cluster_bench_payload(**KW)
        validate_bench_payload(payload)
        assert payload["bench"] == "s2-cluster"
        assert len(payload["rows"]) == 2
        summary = payload["summary"]
        assert summary["base_shards"] == 1
        assert summary["peak_shards"] == 2
        # Two shards must beat one on a saturating stream (the hard gate
        # is bench_s2_cluster's, at the full 4-shard configuration).
        assert summary["throughput_speedup"] > 1.2
        assert summary["shed_rate_gold_peak"] == 0.0

    def test_payload_is_deterministic(self):
        assert cluster_bench_payload(**KW) == cluster_bench_payload(**KW)
