"""C1 — what surviving a fault plan costs, in simulated time.

``repro chaos`` (:mod:`repro.faults.chaos`) checks that every recovery
path is *correct*; this measures what it *costs*.  One clean metered
solve sets the baseline makespan; each device-site plan of the pinned
chaos corpus then re-runs the same solve under injection (with
checkpoints every 2 nodes, as the chaos api scenario does), and the row
records how much simulated time the retries, re-uploads and checkpoint
restarts added.  Claims encoded:

- every plan is survived: same status as the clean solve, every
  injected fault either recovered or tolerated;
- a plan that never fires costs nothing (the measurement's own zero);
- every recovery's *work* is bounded — the makespan less the retry
  policy's scheduled backoff stays under ``MAX_OVERHEAD`` × the clean
  solve.  The backoff is a wait the plan's ``RetryPolicy`` schedules
  (``backoff_seconds``, the sum of the injector's own
  ``fault.backoff_seconds`` observations), a fixed cost whatever the
  solve costs, so dividing it by the clean solve measures how fast the
  clean solve is, not what recovery costs: three retried kernels wait
  0.536 ms beside a 0.613 ms clean solve.  The raw ratio, backoff
  included, stays a reported column;
- a node kill's restart from the last checkpoint is never free, in the
  restart's own work: it uploads the matrix again and inverts more bases
  than the clean solve (``h2d``, ``inversions``), and its attempts after
  the crash re-solve at least one node (``resumed_nodes``).  Its
  makespan is not that measure: the restart re-solves the snapshot's
  leaves from their slack bases where the clean run took them warm, and
  on a one-row knapsack a slack start can take fewer pivots than the
  warm one it replaces, so the ratio is a reported column.

A *tolerated* ECC fault is survived by degrading down the strategy
ladder (``gpu_only`` → ``cpu_orchestrated`` → ``direct``), so those rows
can read below 1x — ``heavy-1`` ends on the host with no device
makespan at all.  That is a cheaper answer from a lesser platform, not
a free recovery; the table marks it rather than printing ``0.00x``.

Fully deterministic (seeded plans, simulated clock).  Besides the
human-readable table, the payload (schema of :mod:`repro.obs.bench`) is
exported as ``BENCH_chaos.json``.
"""

from repro.api import SolveOptions, solve
from repro.faults import injecting
from repro.faults.chaos import builtin_corpus
from repro.faults.plan import SITE_ECC, SITE_KERNEL, SITE_NODE, SITE_TRANSFER
from repro.mip.solver import SolverOptions
from repro.obs.bench import bench_payload
from repro.problems.knapsack import generate_knapsack
from repro.reporting import format_seconds, render_table

SEED = 0
ITEMS = 8
STRATEGY = "gpu_only"
DEVICE_SITES = (SITE_KERNEL, SITE_ECC, SITE_TRANSFER, SITE_NODE)
#: Bound on any plan's makespan, less its scheduled backoff, over the
#: clean solve's.
MAX_OVERHEAD = 2.0


def _work(report):
    """``(h2d transfers, basis inversions)`` a solve's device ran."""
    counters = report.metrics.get("counters", {})
    return counters.get("transfers.h2d", 0), counters.get("kernels.getri", 0)


def chaos_overhead_payload():
    """Baseline solve, then the same solve under each device-site plan."""
    problem = generate_knapsack(ITEMS, seed=SEED)
    baseline = solve(problem, SolveOptions(strategy=STRATEGY))
    base_span = baseline.makespan_seconds
    base_h2d, base_inversions = _work(baseline)
    rows = []
    worst = 1.0
    for plan in builtin_corpus(SEED):
        if not any(plan.touches(site) for site in DEVICE_SITES):
            continue
        with injecting(plan) as injector:
            report = solve(
                problem,
                SolveOptions(
                    strategy=STRATEGY,
                    solver=SolverOptions(checkpoint_every=2),
                    fault_plan=plan,
                ),
            )
        # The injector's books, present once a fault was injected.
        counts = report.metrics.get("faults", {})
        backoff = injector.metrics.histogram("fault.backoff_seconds").total
        span = report.makespan_seconds
        overhead = span / base_span if base_span > 0 else 1.0
        # A plan that left the device has no makespan to take it from.
        recovery = max(span - backoff, 0.0) / base_span if base_span > 0 else 1.0
        worst = max(worst, recovery)
        h2d, inversions = _work(report)
        rows.append(
            {
                "plan": plan.name,
                "status": report.status,
                "injected": counts.get("injected", 0),
                "recovered": counts.get("recovered", 0),
                "tolerated": counts.get("tolerated", 0),
                "makespan_seconds": span,
                "backoff_seconds": backoff,
                "overhead_ratio": overhead,
                "recovery_ratio": recovery,
                "h2d": h2d,
                "inversions": inversions,
                "resumed_nodes": report.metrics.get("resume", {}).get("resumed_nodes", 0),
            }
        )
    return bench_payload(
        "chaos_overhead",
        rows,
        params={"seed": SEED, "items": ITEMS, "strategy": STRATEGY},
        summary={
            "baseline_makespan_seconds": base_span,
            "baseline_h2d": base_h2d,
            "baseline_inversions": base_inversions,
            "max_overhead_ratio": max(r["overhead_ratio"] for r in rows),
            "max_recovery_ratio": worst,
            "plans": len(rows),
        },
    )


def test_c1_chaos_overhead(benchmark, report):
    payload = benchmark.pedantic(chaos_overhead_payload, rounds=1, iterations=1)
    rows = payload["rows"]
    summary = payload["summary"]

    report.add_json("BENCH_chaos.json", payload)

    on_device = lambda r: r["makespan_seconds"] > 0
    table = render_table(
        [
            "plan", "injected", "recovered", "tolerated", "makespan", "backoff",
            "overhead vs clean", "less backoff", "h2d", "inversions",
            "re-solved nodes",
        ],
        [
            (
                r["plan"],
                r["injected"],
                r["recovered"],
                r["tolerated"],
                format_seconds(r["makespan_seconds"]) if on_device(r) else "-",
                format_seconds(r["backoff_seconds"]) if r["backoff_seconds"] else "-",
                f"{r['overhead_ratio']:.2f}x" if on_device(r) else "left the device",
                f"{r['recovery_ratio']:.2f}x" if on_device(r) else "-",
                r["h2d"],
                r["inversions"],
                r["resumed_nodes"],
            )
            for r in rows
        ],
        title=(
            f"C1 — cost of surviving each fault plan (knapsack-{ITEMS}, "
            f"{STRATEGY}, V100): clean solve "
            f"{format_seconds(summary['baseline_makespan_seconds'])} "
            f"({summary['baseline_h2d']} h2d, "
            f"{summary['baseline_inversions']} inversions), "
            f"worst {summary['max_recovery_ratio']:.2f}x less backoff "
            f"({summary['max_overhead_ratio']:.2f}x raw)"
        ),
    )
    report.add("C1_chaos_overhead", table)

    # The artifacts are written first: a claim that fails is on record.
    # Claim 1: every plan is survived and every fault accounted for.
    assert all(r["status"] == "optimal" for r in rows)
    assert all(r["injected"] == r["recovered"] + r["tolerated"] for r in rows)
    # Claim 2: a plan that injected nothing costs exactly the baseline.
    assert all(r["overhead_ratio"] == 1.0 for r in rows if r["injected"] == 0)
    # Claim 3: every recovery's work is bounded.
    worst = max(rows, key=lambda r: r["recovery_ratio"])
    assert worst["recovery_ratio"] == summary["max_recovery_ratio"] < MAX_OVERHEAD
    # Claim 4: a restart is never free — it uploads again, inverts more
    # and re-solves at least one node.
    (kill,) = [r for r in rows if r["plan"] == "node-kill"]
    assert kill["h2d"] > summary["baseline_h2d"]
    assert kill["inversions"] > summary["baseline_inversions"]
    assert kill["resumed_nodes"] >= 1
