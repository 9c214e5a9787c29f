"""E15 — warm-started node LPs and parametric serve re-solves, measured.

Two claims from the §5.3 reuse argument, one payload:

1. **Node-LP reuse.**  A branch-and-bound child differs from its
   parent by one tightened bound, so re-solving from the parent's basis
   and its resident factorization skips what a cold node pays before
   its first pivot: the basis inversion and pricing from scratch.  The
   benchmark runs the same instances warm and cold through
   ``api.solve`` on a simulated V100 (``gpu_only``) and reports device
   time and pivots per node both ways; the headline
   ``node_time_reduction`` is the ratio of device time per node, and
   :data:`MIN_NODE_TIME_REDUCTION` its gate.  Pivots are reported, not
   gated: a cold node starts the same dual loop from its slack basis,
   which on these instances takes no more pivots than the parent's
   basis (EXPERIMENTS.md E15).

2. **Serve warm-hit latency.**  A request stream of near-duplicate LPs
   (same constraint matrix, perturbed rhs) against
   :class:`repro.serve.SolveService` exercises the parametric re-solve
   path: after one cold seed, perturbations answer as range hits (zero
   pivots) or warm re-solves (a few pivots), at microsecond simulated
   latencies instead of full batch dispatch.

Every number is cross-validated before it is believed: warm and cold
runs must agree on status and objective per instance, and every
parametric serve answer was certificate-audited inside the service.

Besides the human-readable table, the payload (schema of
:mod:`repro.obs.bench`) is exported as ``BENCH_warm.json``.
"""

import numpy as np

from repro.api import SolveOptions, solve
from repro.lp.problem import LinearProgram
from repro.mip.solver import SolverOptions
from repro.obs.bench import bench_payload
from repro.problems.knapsack import generate_knapsack
from repro.problems.random_mip import generate_random_mip
from repro.reporting import render_series
from repro.serve import BatchingPolicy, SolveService

NODE_LIMIT = 50_000
SERVE_REQUESTS = 16
SERVE_SEED = 7
STRATEGY = "gpu_only"
#: Warm node LPs must cost strictly less device time per node than cold
#: ones, overall and on every instance: what reuse saves is a fixed few
#: launches per node, so no floor above 1 follows from the model at
#: these sizes (EXPERIMENTS.md E15).
MIN_NODE_TIME_REDUCTION = 1.0


def instances():
    """The E15 instance mix: branchy knapsacks plus a dense random MIP."""
    return [
        generate_knapsack(18, seed=3, correlation="strong"),
        generate_knapsack(22, seed=3, correlation="strong"),
        generate_random_mip(8, 6, seed=4, integer_fraction=1.0),
    ]


def _solve_both(problem, node_limit):
    """One instance warm and cold; cross-validated before reporting."""
    warm, cold = (
        solve(
            problem,
            SolveOptions(
                strategy=STRATEGY,
                solver=SolverOptions(node_limit=node_limit, warm_start=warm_start),
            ),
        )
        for warm_start in (True, False)
    )
    assert warm.status == cold.status, (
        f"E15 cross-validation: {problem.name} warm={warm.status} "
        f"vs cold={cold.status}"
    )
    scale = 1.0 + max(abs(warm.objective), abs(cold.objective))
    assert abs(warm.objective - cold.objective) <= 1e-6 * scale, (
        f"E15 cross-validation: {problem.name} objectives differ "
        f"({warm.objective!r} vs {cold.objective!r})"
    )
    ws, cs = warm.result.stats, cold.result.stats
    warm_nodes = max(1, ws.nodes_processed)
    cold_nodes = max(1, cs.nodes_processed)
    warm_us = warm.makespan_seconds * 1e6 / warm_nodes
    cold_us = cold.makespan_seconds * 1e6 / cold_nodes
    warm_per_node = ws.lp_iterations / warm_nodes
    cold_per_node = cs.lp_iterations / cold_nodes
    return {
        "instance": problem.name,
        "status": warm.status,
        "objective": float(warm.objective),
        "warm_nodes": ws.nodes_processed,
        "cold_nodes": cs.nodes_processed,
        "warm_seconds": warm.makespan_seconds,
        "cold_seconds": cold.makespan_seconds,
        "warm_us_per_node": round(warm_us, 4),
        "cold_us_per_node": round(cold_us, 4),
        "node_time_reduction": round(cold_us / warm_us, 4),
        "warm_pivots": ws.lp_iterations,
        "cold_pivots": cs.lp_iterations,
        "warm_pivots_per_node": round(warm_per_node, 4),
        "cold_pivots_per_node": round(cold_per_node, 4),
        "pivot_reduction": round(cold_per_node / max(warm_per_node, 1e-12), 4),
        "warm_starts": ws.warm_starts,
        "factor_reuses": ws.warm_factor_reuses,
        "audit_failures": ws.warm_audit_failures,
    }


def _serve_row(num_requests):
    """Near-duplicate LP stream through the serve parametric path."""
    rng = np.random.default_rng(SERVE_SEED)
    n, m = 10, 8
    a = np.abs(rng.normal(size=(m, n))) + 0.1
    b0 = np.abs(rng.normal(size=m)) * 5 + 2
    c = rng.normal(size=n) + 1.0

    service = SolveService(
        policy=BatchingPolicy(max_batch_size=1, max_wait=0.0)
    )
    for i in range(num_requests):
        if i == 0:
            scale = np.ones(m)  # the cold seed
        elif i % 4 == 0:
            # A big rhs move: the stored basis stops being optimal, so
            # the warm dual-simplex re-solve pivots (a few, not zero).
            scale = rng.uniform(0.5, 1.5, size=m)
        else:
            scale = 1.0 + 0.02 * rng.uniform(-1, 1, size=m)
        problem = LinearProgram(
            c=c, a_ub=a, b_ub=b0 * scale, lb=np.zeros(n), ub=np.full(n, np.inf)
        )
        service.submit(problem, at=float(i))
        service.drain()
    responses = service.close()

    warm_latencies = [r.latency for r in responses if r.warm]
    cold_latencies = [r.latency for r in responses if not r.warm and not r.cached]
    cache = service.parametric
    mean = lambda xs: float(np.mean(xs)) if xs else None
    warm_mean = mean(warm_latencies)
    cold_mean = mean(cold_latencies)
    return {
        "instance": "serve-near-duplicates",
        "requests": num_requests,
        "range_hits": cache.range_hits,
        "warm_hits": cache.warm_hits,
        "parametric_misses": cache.misses,
        "parametric_audit_failures": cache.audit_failures,
        "warm_latency_mean": warm_mean,
        "cold_latency_mean": cold_mean,
        "warm_latency_speedup": (
            round(cold_mean / warm_mean, 4)
            if warm_mean and cold_mean
            else None
        ),
    }


def warm_bench_payload(node_limit=NODE_LIMIT, serve_requests=SERVE_REQUESTS):
    """Assemble the E15 artifact payload (schema of :mod:`repro.obs.bench`).

    ``rows`` carries one warm-vs-cold row per MIP instance plus one
    serve-stream row; ``summary`` holds the headline aggregate device
    time reduction (total cold seconds-per-node over total warm), the
    same for pivots, and the serve hit counts.
    """
    rows = [_solve_both(problem, node_limit) for problem in instances()]
    serve = _serve_row(serve_requests)

    warm_nodes = max(1, sum(r["warm_nodes"] for r in rows))
    cold_nodes = max(1, sum(r["cold_nodes"] for r in rows))
    per_node = lambda key, nodes: sum(r[key] for r in rows) / nodes
    warm_time = per_node("warm_seconds", warm_nodes)
    cold_time = per_node("cold_seconds", cold_nodes)
    warm_per_node = per_node("warm_pivots", warm_nodes)
    cold_per_node = per_node("cold_pivots", cold_nodes)

    summary = {
        "instances": len(rows),
        "node_time_reduction": round(cold_time / warm_time, 4),
        "pivot_reduction": round(cold_per_node / max(warm_per_node, 1e-12), 4),
        "warm_pivots_per_node": round(warm_per_node, 4),
        "cold_pivots_per_node": round(cold_per_node, 4),
        "serve_range_hits": serve["range_hits"],
        "serve_warm_hits": serve["warm_hits"],
        "serve_warm_latency_speedup": serve["warm_latency_speedup"],
    }
    return bench_payload(
        "e15_warm",
        rows=rows + [serve],
        params={
            "node_limit": node_limit,
            "serve_requests": serve_requests,
            "seed": SERVE_SEED,
        },
        summary=summary,
    )


def check_claims(payload):
    """E15's gates, on a payload (the test suite doctors one to see them bite)."""
    summary = payload["summary"]
    mip_rows = payload["rows"][:-1]
    serve_row = payload["rows"][-1]
    # Claim: warm starts cut device time per node overall (and on every
    # measured instance) without touching the search outcome —
    # _solve_both fails on any warm/cold status or objective mismatch.
    assert summary["node_time_reduction"] > MIN_NODE_TIME_REDUCTION, (
        f"node_time_reduction {summary['node_time_reduction']} <= "
        f"{MIN_NODE_TIME_REDUCTION}"
    )
    assert all(r["node_time_reduction"] > MIN_NODE_TIME_REDUCTION for r in mip_rows)
    assert all(r["audit_failures"] == 0 for r in mip_rows)
    # Claim: the near-duplicate stream actually exercises both parametric
    # paths, and answering warm beats cold dispatch on latency.
    assert serve_row["range_hits"] > 0
    assert serve_row["warm_hits"] > 0
    assert serve_row["parametric_audit_failures"] == 0
    assert summary["serve_warm_latency_speedup"] > 1.0


def test_e15_warm(benchmark, report):
    payload = benchmark.pedantic(warm_bench_payload, rounds=1, iterations=1)
    check_claims(payload)
    report.add_json("BENCH_warm.json", payload)

    summary = payload["summary"]
    mip_rows = payload["rows"][:-1]
    serve_row = payload["rows"][-1]
    series = render_series(
        "instance",
        [r["instance"].split("-")[0] + f"[{i}]" for i, r in enumerate(mip_rows)],
        [
            ("warm µs/node", [r["warm_us_per_node"] for r in mip_rows]),
            ("cold µs/node", [r["cold_us_per_node"] for r in mip_rows]),
            ("reduction", [r["node_time_reduction"] for r in mip_rows]),
            ("warm piv/node", [r["warm_pivots_per_node"] for r in mip_rows]),
            ("cold piv/node", [r["cold_pivots_per_node"] for r in mip_rows]),
            ("factor reuses", [r["factor_reuses"] for r in mip_rows]),
        ],
        title=(
            f"E15 — cold over warm node LPs ({STRATEGY}, V100): "
            f"{summary['node_time_reduction']}x the device time/node, "
            f"{summary['pivot_reduction']}x the pivots/node; "
            f"serve {serve_row['range_hits']} range + "
            f"{serve_row['warm_hits']} warm hits, "
            f"{summary['serve_warm_latency_speedup']}x latency"
        ),
    )
    report.add("E15_warm", series)
