"""S1 — the serving layer: §5.5's concurrent-small-problems regime as a system.

Claims encoded:

- Under high offered load, dynamic batching (coalescing behind busy
  workers into lockstep device batches) beats one-request-per-dispatch
  by ≥3× throughput — the Gurung & Ray / batched-kernel amortization
  argument applied end-to-end through a queueing front-end.
- On a duplicate-heavy stream, the fingerprint result cache (plus
  in-queue coalescing) serves ≥90% of requests without any device work.
- Per-stage breakdowns (queue wait / batch assembly / device time) are
  reported for every configuration, with p50/p95/p99 latency read from
  the :mod:`repro.obs` histograms the service populates.
"""

from repro.obs.bench import bench_payload
from repro.reporting import format_seconds, render_series, render_table
from repro.serve import BatchingPolicy, lp_pool, run_load, synthetic_stream

NUM_REQUESTS = 160
BATCH_SIZES = [1, 8, 32]
#: Mean interarrival in simulated seconds: saturating → relaxed.
LOADS = [("high", 1e-6), ("medium", 1e-4), ("low", 1e-3)]
WORKERS = 2


def run_throughput_sweep():
    """Unique-problem streams: batching is the only lever (no cache help)."""
    pool = lp_pool(NUM_REQUESTS, num_items=12, seed=31)  # all distinct
    rows = []
    for load_name, interarrival in LOADS:
        stream = synthetic_stream(pool, NUM_REQUESTS, interarrival, seed=17)
        for batch_size in BATCH_SIZES:
            policy = BatchingPolicy(max_batch_size=batch_size, max_wait=2e-3)
            summary = run_load(stream, policy=policy, num_workers=WORKERS)
            rows.append((load_name, batch_size, summary))
    return rows


def run_cache_experiment():
    """Duplicate-heavy stream: 240 requests over 8 distinct problems."""
    pool = lp_pool(8, num_items=12, seed=53)
    stream = synthetic_stream(pool, 240, 5e-5, seed=29)
    policy = BatchingPolicy(max_batch_size=16, max_wait=1e-3)
    return run_load(stream, policy=policy, num_workers=WORKERS)


def run_all():
    return run_throughput_sweep(), run_cache_experiment()


def test_s1_serve_throughput(benchmark, report):
    sweep, cached = benchmark.pedantic(run_all, rounds=1, iterations=1)

    table_rows = []
    for load_name, batch_size, s in sweep:
        table_rows.append(
            (
                load_name,
                batch_size,
                round(s["throughput"]),
                s["batches"],
                format_seconds(s["mean_queue_wait"]),
                format_seconds(s["mean_assembly"]),
                format_seconds(s["mean_device"]),
                format_seconds(s["p50_latency"]),
                format_seconds(s["p95_latency"]),
                format_seconds(s["p99_latency"]),
                format_seconds(s["makespan"]),
            )
        )
    table = render_table(
        [
            "load",
            "batch",
            "req/s",
            "batches",
            "queue wait",
            "assembly",
            "device",
            "p50",
            "p95",
            "p99",
            "makespan",
        ],
        table_rows,
        title=(
            f"S1 — serve throughput vs batching policy "
            f"({NUM_REQUESTS} distinct small LPs, {WORKERS} V100 workers)"
        ),
    )

    # Throughput-vs-batch figure at the highest offered load.
    high = {b: s for name, b, s in sweep if name == "high"}
    figure = render_series(
        "batch",
        BATCH_SIZES,
        [("req/s @ high load", [round(high[b]["throughput"]) for b in BATCH_SIZES])],
        title="S1 — dynamic batching at saturating load",
    )

    dedup = cached["dedup_rate"]
    cache_lines = "\n".join(
        [
            "S1 — duplicate-heavy stream (240 requests, 8 distinct, batch 16)",
            f"  cache hits      : {cached['cache_hits']}",
            f"  coalesced       : {cached['coalesced']}",
            f"  device batches  : {cached['batches']}",
            f"  dedup rate      : {dedup:.1%}",
            f"  throughput      : {round(cached['throughput'])} req/s",
        ]
    )

    # Machine-readable artifact for CI and regression tooling.
    json_rows = [
        {
            "load": load_name,
            "batch": batch_size,
            "throughput": float(s["throughput"]),
            "batches": int(s["batches"]),
            "mean_queue_wait": float(s["mean_queue_wait"]),
            "mean_device": float(s["mean_device"]),
            "p95_latency": float(s["p95_latency"]),
            "makespan": float(s["makespan"]),
        }
        for load_name, batch_size, s in sweep
    ]
    report.add_json(
        "BENCH_s1.json",
        bench_payload(
            "s1_serve_throughput",
            json_rows,
            params={
                "requests": NUM_REQUESTS,
                "workers": WORKERS,
                "batch_sizes": ",".join(str(b) for b in BATCH_SIZES),
            },
            summary={
                "peak_throughput": float(high[32]["throughput"]),
                "batching_speedup": float(
                    high[32]["throughput"] / high[1]["throughput"]
                ),
                "dedup_rate": float(dedup),
            },
        ),
    )

    # Claim 1: ≥3× throughput from dynamic batching at high offered load.
    assert high[32]["throughput"] >= 3 * high[1]["throughput"]
    assert high[8]["throughput"] > high[1]["throughput"]
    # Claim 2: ≥90% of the duplicate-heavy stream never touches the device.
    assert dedup >= 0.90
    assert cached["batches"] <= 8  # at most one device batch per distinct shape-slice
    # Sanity: every admitted request completed, everywhere.
    for _name, _b, s in sweep:
        assert s["completed"] == s["offered"] - s["rejected"] - s["timeouts"]
    # Low load: max_wait still bounds the queue wait (a free worker takes
    # a request at once, so it reads 0).
    low = {b: s for name, b, s in sweep if name == "low"}
    assert low[32]["mean_queue_wait"] <= 2e-3 + 1e-9

    report.add("S1_serve_throughput", f"{table}\n\n{figure}\n\n{cache_lines}")
