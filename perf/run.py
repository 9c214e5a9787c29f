#!/usr/bin/env python3
"""The perf ledger's one command.

    python3 perf/run.py --workload <name>|all --seed <int> [--seconds N]
                        [--trace 0|1|both] [--out DIR] [--smoke] [--verify]

For each workload: set up (import the program, build the inputs from
the seed; repeated, median reported as ``setup_s``), compute HiGHS
reference answers (outside ``setup_s``), run untraced passes for
``--seconds``, then one counted pass (``host_calls``, ``--trace 0``)
and/or one traced pass (per-layer metrics, ``--trace 1``).  Every metric
is printed by name with its unit; a single-workload run ends with the
one-line JSON result the benchmark contract asks for.

Two clocks: ``sim_*`` metrics are modelled device seconds and repeat
bit-for-bit; host seconds are reported per layer and are not gated,
because this sandbox's host clock drifts by tens of percent between
runs — ``host_calls`` (function calls under cProfile, exact) is the
gated host-cost metric.  README.md has the full tables.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    # Run as a script: make `perf` and the program importable, and keep
    # perf/ itself off the path (perf/trace.py would shadow stdlib trace).
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

#: Single-threaded numerics and a fixed hash seed, so call counts and
#: iteration orders repeat across processes.
ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

WORKLOAD_NAMES = (
    "tree-exact", "tree-portfolio", "lp-batch", "cluster-burst", "cluster-dup",
)

#: name, unit, better, bound (share of the parent's median it may worsen by).
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("host_calls", "count", "lower", 0.05),
    ("sim_makespan_s", "sim_s", "lower", 0.06),
    ("sim_ops_per_s", "1/sim_s", "higher", 0.06),
    ("sim_latency_mean_s", "sim_s", "lower", 0.06),
    ("sim_latency_tail_s", "sim_s", "lower", 0.25),
    ("ok_frac", "ratio", "higher", 0.02),
    ("slo_ok_frac", "ratio", "higher", 0.02),
    ("gap_closed_mean", "ratio", "higher", 0.002),
)

LAYERS = (
    "cluster", "serve", "api", "strategies", "mip", "lp", "la",
    "device", "check", "guard", "obs",
)

#: name, unit, better.  Units "s", "us", "MB" and "host_share" are host-clock
#: readings (noisy, ungated); everything else repeats exactly.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    *((f"{layer}.calls", "count", "lower") for layer in LAYERS),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    *((f"{layer}.self_frac", "host_share", "lower") for layer in LAYERS),
    ("cluster.sim.router_p95_s", "sim_s", "lower"),
    ("cluster.sim.queue_wait_p95_s", "sim_s", "lower"),
    ("cluster.sim.batch_p95_s", "sim_s", "lower"),
    ("cluster.sim.solve_p95_s", "sim_s", "lower"),
    ("cluster.admission.shed_frac", "ratio", "lower"),
    ("cluster.admission.transitions", "count", "lower"),
    ("cluster.router.spills", "count", "lower"),
    ("cluster.router.affinity_hits", "count", "higher"),
    ("cluster.cache.hit_frac", "ratio", "higher"),
    ("cluster.cache.remote_hits", "count", "lower"),
    ("cluster.cache.inserts", "count", "lower"),
    ("cluster.cache.invalidations", "count", "lower"),
    ("serve.batches", "count", "lower"),
    ("serve.batch_size_mean", "count", "higher"),
    ("serve.dispatch.calls", "count", "lower"),
    ("serve.coalesced", "count", "higher"),
    ("serve.cache.hit_frac", "ratio", "higher"),
    ("serve.parametric.range_hits", "count", "higher"),
    ("serve.parametric.warm_hits", "count", "higher"),
    ("serve.parametric.misses", "count", "lower"),
    ("serve.parametric.audit_failures", "count", "lower"),
    ("mip.nodes", "count", "lower"),
    ("mip.warm_starts", "count", "higher"),
    ("mip.warm_factor_reuses", "count", "higher"),
    ("mip.warm_audit_failures", "count", "lower"),
    ("mip.portfolio.incumbents", "count", "higher"),
    ("mip.portfolio.rejected", "count", "lower"),
    ("lp.dual_simplex.calls", "count", "lower"),
    ("lp.pivots", "count", "lower"),
    ("lp.pivots_per_node", "count", "lower"),
    ("lp.warm.resolves", "count", "higher"),
    ("lp.warm.cold_fallbacks", "count", "lower"),
    ("lp.batch_simplex.calls", "count", "lower"),
    ("lp.batch_simplex.iterations", "count", "lower"),
    ("lp.batch_simplex.self_s", "s", "lower"),
    ("lp.batch_simplex.sim_s", "sim_s", "lower"),
    ("lp.pdhg_batch.calls", "count", "lower"),
    ("lp.pdhg_batch.sweeps", "count", "lower"),
    ("lp.pdhg_batch.restarts", "count", "lower"),
    ("lp.pdhg_batch.self_s", "s", "lower"),
    ("lp.pdhg_batch.sim_s", "sim_s", "lower"),
    ("lp.crossover_m", "count", "lower"),
    ("la.lu_factor.calls", "count", "lower"),
    ("la.lu_solve.calls", "count", "lower"),
    ("la.pfi.updates", "count", "lower"),
    ("la.pfi.refactors", "count", "lower"),
    ("la.flops", "flop", "lower"),  # computed from argument shapes
    ("device.kernels", "count", "lower"),
    ("device.sim_busy_s", "sim_s", "lower"),
    ("device.h2d_transfers", "count", "lower"),
    ("device.h2d_bytes", "B", "lower"),
    ("device.d2h_bytes", "B", "lower"),
    ("device.host_us_per_kernel", "us", "lower"),
    ("check.certify.calls", "count", "lower"),
    ("check.certify.failures", "count", "lower"),
    ("guard.events", "count", "lower"),
    ("obs.metrics.calls", "count", "lower"),
    ("host.pass_s", "s", "lower"),
    ("host.pass_spread", "host_share", "lower"),
    ("host.cpu_pass_s", "s", "lower"),
    ("host.peak_rss_mb", "MB", "lower"),
    ("host.trace_overhead_ratio", "host_share", "lower"),
)

HOST_UNITS = ("s", "us", "MB", "host_share")
SETUP_REPEATS = 7
MIN_PASSES = 2
#: Share of delivered answers, slowest first, averaged into the tail latency.
TAIL_SHARE = 0.05


def tail_mean(ascending: Sequence[float]) -> float:
    """Mean of the slowest TAIL_SHARE of an ascending sequence (at least one)."""
    return statistics.fmean(ascending[-max(1, math.ceil(TAIL_SHARE * len(ascending))):])


def crossover_m(answers) -> int:
    """Smallest m where batched PDHG's simulated time beats lockstep simplex."""
    sim = {(a.key[0], a.engine): a.latency for a in answers if a.engine and a.outcome == "ok"}
    wins = [
        m for (m, engine) in sim
        if engine == "pdhg" and sim[m, "pdhg"] < sim.get((m, "simplex"), -math.inf)
    ]
    return min(wins, default=-1)


# -- one workload ------------------------------------------------------------------


def setup(name: str, seed: int, smoke: bool):
    """Import the program and build the workload's inputs; median of the repeats.

    Each repeat drops every ``repro`` module first, so the program's own
    import-time work is inside the reading.  Services and devices are
    stateful and built inside each pass, so their construction is pass
    cost, not set-up.
    """
    seconds = []
    for _ in range(1 if smoke else SETUP_REPEATS):
        for mod in [m for m in sys.modules if m.split(".")[0] == "repro"]:
            del sys.modules[mod]
        sys.modules.pop("perf.workloads", None)
        t0 = time.perf_counter()
        module = importlib.import_module("perf.workloads")
        workload = module.WORKLOADS[name]
        inputs = workload.build(seed, smoke)
        seconds.append(time.perf_counter() - t0)
    return module, workload, inputs, statistics.median(seconds)


def score(module, workload, inputs, optima, answers, makespan) -> Dict[str, float]:
    """Simulated-clock and quality numbers of one pass, checked against HiGHS."""
    good = [
        a for a in answers
        if a.outcome == "ok"
        and module.answer_correct(inputs.problems[a.key], optima[a.key], a)
    ]
    shed = sum(a.outcome == "shed" for a in answers)
    latencies = sorted(a.latency for a in good)
    gaps = [max(0.0, a.bound - a.objective) / max(1.0, abs(a.objective)) for a in good]
    attempted = len(answers)
    return {
        "attempted": attempted,
        # Shed requests are SLO admission's designed answer: they lower
        # ok_frac / slo_ok_frac but are not program failures.
        "failed": attempted - len(good) - shed,
        "sim_makespan_s": makespan,
        "sim_ops_per_s": len(good) / makespan if makespan > 0 else 0.0,
        "sim_latency_mean_s": statistics.fmean(latencies) if latencies else math.nan,
        "sim_latency_tail_s": tail_mean(latencies) if latencies else math.nan,
        "ok_frac": len(good) / attempted,
        "slo_ok_frac": sum(l <= workload.slo for l in latencies) / attempted,
        "gap_closed_mean": 1.0 - (statistics.fmean(gaps) if gaps else 1.0),
    }


def untraced_passes(workload, inputs, seconds: float):
    """Run passes back to back for ``seconds`` (at least MIN_PASSES)."""
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        gc.collect()
        cpu0, t0 = time.process_time(), time.perf_counter()
        answers, makespan = workload.run(inputs)
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        passes.append((answers, makespan, wall, cpu))
    return passes


def counted_pass(workload, inputs):
    """One pass under cProfile; returns (answers, makespan, function calls)."""
    profiler = cProfile.Profile()
    gc.collect()
    profiler.enable()
    try:
        answers, makespan = workload.run(inputs)
    finally:
        profiler.disable()
    return answers, makespan, sum(entry.callcount for entry in profiler.getstats())


def traced_pass(workload, inputs):
    """One pass with the layer wrappers installed; returns tracer and wall time."""
    from perf.trace import Tracer

    gc.collect()
    with Tracer() as tracer:
        t0 = time.perf_counter()
        answers, makespan = workload.run(inputs)
        wall = time.perf_counter() - t0
    return answers, makespan, tracer, wall


def layer_metrics(tracer, traced_wall: float, passes, answers) -> Dict[str, float]:
    """The per-layer numbers of one traced pass plus the host-clock readings."""
    span = tracer.by_name()
    counts = tracer.counts
    m: Dict[str, float] = {name: 0 for name, _, _ in PER_LAYER}

    def calls(*names: str) -> int:
        return sum(span[n][0] for n in names)

    def self_s(*names: str) -> float:
        return sum(span[n][1] for n in names)

    for layer, (n_calls, layer_self) in tracer.by_layer(span).items():
        m[f"{layer}.calls"] = n_calls
        m[f"{layer}.self_s"] = layer_self
        m[f"{layer}.self_frac"] = layer_self / traced_wall

    for cluster in tracer.instances["ClusterService"].values():  # one per pass
        derived = cluster.stats()["derived"]
        for tier in ("router", "queue_wait", "batch", "solve"):
            m[f"cluster.sim.{tier}_p95_s"] = cluster.percentile(f"cluster.{tier}", 95.0)
        m["cluster.admission.shed_frac"] = (
            cluster.metrics.count("cluster.shed") / cluster.metrics.count("cluster.requests")
        )
        m["cluster.admission.transitions"] = derived["admission"]["transitions"]
        m["cluster.router.spills"] = derived["router"]["spills"]
        m["cluster.router.affinity_hits"] = cluster.metrics.count("cluster.affinity_hits")
        m["cluster.cache.hit_frac"] = derived["cache"]["hit_rate"]
        m["cluster.cache.remote_hits"] = derived["cache"]["remote_hits"]
        m["cluster.cache.invalidations"] = derived["cache"]["invalidations"]
    m["cluster.cache.inserts"] = calls("cluster.ClusterCache.insert")

    services = list(tracer.instances["SolveService"].values())

    def served(counter: str) -> int:
        return sum(s.metrics.count(counter) for s in services)

    def parametric(key: str) -> int:
        return sum(s.stats()["derived"]["parametric"][key] for s in services)

    batches = served("serve.batches")
    lookups = served("serve.cache.hits") + served("serve.cache.misses")
    m["serve.batches"] = batches
    m["serve.batch_size_mean"] = served("serve.batch_members") / batches if batches else 0.0
    m["serve.dispatch.calls"] = calls("serve.WorkerPool.dispatch")
    m["serve.coalesced"] = served("serve.coalesced")
    m["serve.cache.hit_frac"] = served("serve.cache.hits") / lookups if lookups else 0.0
    m["serve.parametric.range_hits"] = parametric("range_hits")
    m["serve.parametric.warm_hits"] = parametric("warm_hits")
    m["serve.parametric.misses"] = parametric("misses")
    m["serve.parametric.audit_failures"] = parametric("audit_failures")

    for key in ("nodes", "warm_starts", "warm_factor_reuses", "warm_audit_failures",
                "portfolio.incumbents", "portfolio.rejected"):
        m[f"mip.{key}"] = counts[f"mip.{key}"]
    m["lp.dual_simplex.calls"] = calls("lp.dual_simplex_resolve")
    m["lp.pivots"] = counts["lp.pivots"]
    m["lp.pivots_per_node"] = (
        counts["lp.pivots"] / counts["mip.nodes"] if counts["mip.nodes"] else 0.0
    )
    m["lp.warm.resolves"] = calls("lp.warm_resolve")
    m["lp.warm.cold_fallbacks"] = counts["lp.warm.cold_fallbacks"]
    m["lp.batch_simplex.calls"] = calls("lp.solve_lp_batch")
    m["lp.batch_simplex.iterations"] = counts["lp.batch_simplex.iterations"]
    m["lp.batch_simplex.self_s"] = self_s("lp.solve_lp_batch", "lp.solve_lp_batch_on_device")
    m["lp.batch_simplex.sim_s"] = counts["lp.batch_simplex.sim_s"]
    m["lp.pdhg_batch.calls"] = calls("lp.solve_lp_pdhg_batch")
    m["lp.pdhg_batch.sweeps"] = counts["lp.pdhg_batch.sweeps"]
    m["lp.pdhg_batch.restarts"] = counts["lp.pdhg_batch.restarts"]
    m["lp.pdhg_batch.self_s"] = self_s(
        "lp.solve_lp_pdhg_batch", "lp.solve_lp_pdhg_batch_on_device"
    )
    m["lp.pdhg_batch.sim_s"] = counts["lp.pdhg_batch.sim_s"]
    m["lp.crossover_m"] = crossover_m(answers)
    m["la.lu_factor.calls"] = calls("la.lu_factor")
    m["la.lu_solve.calls"] = calls("la.lu_solve")
    m["la.pfi.updates"] = calls("la.ProductFormInverse.update")
    m["la.pfi.refactors"] = calls("la.ProductFormInverse.refactorize")
    m["la.flops"] = counts["la.flops"]
    kernels = calls("device.Device._charge")
    m["device.kernels"] = kernels
    m["device.sim_busy_s"] = counts["device.sim_busy_s"]
    m["device.h2d_transfers"] = counts["device.h2d_transfers"]
    m["device.h2d_bytes"] = counts["device.h2d_bytes"]
    m["device.d2h_bytes"] = counts["device.d2h_bytes"]
    m["device.host_us_per_kernel"] = (
        self_s("device.Device._charge") / kernels * 1e6 if kernels else 0.0
    )
    m["check.certify.calls"] = calls(
        "check.certify_mip_solution", "check.certify_mip_result",
        "check.certify_lp_result", "check.certify_first_order_lp",
    )
    m["check.certify.failures"] = counts["check.certify.failures"]
    m["guard.events"] = calls("guard.GuardContext.note", "guard.escalate_lp")
    m["obs.metrics.calls"] = m["obs.calls"]

    walls = [p[2] for p in passes]
    best = min(range(len(passes)), key=lambda i: walls[i])
    m["host.pass_s"] = walls[best]
    m["host.pass_spread"] = (max(walls) - walls[best]) / walls[best]
    m["host.cpu_pass_s"] = passes[best][3]
    m["host.peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    m["host.trace_overhead_ratio"] = traced_wall / walls[best]
    return m


def run_workload(
    name: str, seed: int, seconds: float, trace: str, smoke: bool = False,
    out: Optional[Path] = None, optima_override=None,
) -> Dict[str, Any]:
    """Everything for one workload; returns the ledger entry.

    ``trace`` is "0" (end-to-end metrics), "1" (per-layer metrics) or
    "both".  ``optima_override`` replaces the reference answers (the
    harness tests use it to prove a wrong reference is caught).
    """
    module, workload, inputs, setup_s = setup(name, seed, smoke)
    optima = module.reference(inputs) if optima_override is None else optima_override(inputs)
    def scored(answers, makespan):
        return score(module, workload, inputs, optima, answers, makespan)

    passes = untraced_passes(workload, inputs, seconds)
    first = scored(*passes[0][:2])
    # A host-only difference (another pass, the profiler, the wrappers) must
    # leave every simulated number and every answer bit-identical.
    same = all(scored(*p[:2]) == first for p in passes[1:])
    entry: Dict[str, Any] = {
        "why": workload.why,
        "loop": workload.loop,
        "params": workload.params,
        "passes": len(passes),
        "attempted": first["attempted"],
        "failed": first["failed"],
    }
    if trace in ("0", "both"):
        answers, makespan, host_calls = counted_pass(workload, inputs)
        same &= scored(answers, makespan) == first
        values = {"setup_s": setup_s, "host_calls": host_calls, **first}
        entry["end_to_end"] = {
            n: {"value": values[n], "unit": unit} for n, unit, _, _ in END_TO_END
        }
    if trace in ("1", "both"):
        answers, makespan, tracer, wall = traced_pass(workload, inputs)
        same &= scored(answers, makespan) == first
        values = layer_metrics(tracer, wall, passes, answers)
        entry["per_layer"] = {
            n: {"value": values[n], "unit": unit} for n, unit, _ in PER_LAYER
        }
        if out is not None:
            payload = {"workload": name, "seed": seed, **tracer.to_json()}
            (out / f"{name}.trace.json").write_text(json.dumps(payload))
    entry["correct"] = bool(same and first["failed"] == 0)
    return entry


# -- reporting ---------------------------------------------------------------------


def print_entry(name: str, entry: Dict[str, Any]) -> None:
    print(f"== {name}: {entry['loop']} loop, {entry['attempted']} ops/pass, "
          f"{entry['passes']} untraced passes, failed {entry['failed']}, "
          f"correct {entry['correct']}")
    for block in ("end_to_end", "per_layer"):
        for metric, cell in entry.get(block, {}).items():
            print(f"{metric:<34} {cell['value']:>18.9g} {cell['unit']}")


def contract_line(entry: Dict[str, Any]) -> str:
    metrics = {**entry.get("end_to_end", {}), **entry.get("per_layer", {})}
    return json.dumps({
        "correct": entry["correct"],
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": metrics,
    })


def deterministic(result: Dict[str, Any]) -> Dict[str, Any]:
    """The part of a contract-line result that must repeat exactly across processes."""
    exact = {
        n: c["value"] for n, c in result["metrics"].items() if c["unit"] not in HOST_UNITS
    }
    exact.update({k: result[k] for k in ("attempted", "failed", "correct")})
    return exact


def verify(names: Sequence[str], seed: int, smoke: bool) -> int:
    """Run each workload twice in fresh processes; every exact metric must match."""
    status = 0
    for name in names:
        runs = []
        for _ in range(2):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", "0", "--trace", "both"]
            proc = subprocess.run(
                cmd + (["--smoke"] if smoke else []),
                capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            runs.append(deterministic(json.loads(proc.stdout.strip().splitlines()[-1])))
        diff = sorted(k for k in runs[0] if runs[0][k] != runs[1][k])
        ok = not diff and runs[0]["correct"]
        print(f"verify {name}: {len(runs[0])} exact metrics, "
              f"{'identical' if not diff else 'DIFFER: ' + ', '.join(diff)}, "
              f"correct {runs[0]['correct']}")
        status |= not ok
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=6.0,
                        help="how long the untraced passes measure")
    parser.add_argument("--trace", default="both", choices=("0", "1", "both"))
    parser.add_argument("--out", type=Path, help="write ledger.json and *.trace.json here")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (harness tests)")
    parser.add_argument("--verify", action="store_true",
                        help="determinism self-check in fresh subprocesses")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perf: the program is not here ({ROOT / 'src' / 'repro'})", file=sys.stderr)
        return 2

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    if args.verify:
        return verify(names, args.seed, args.smoke)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    ledger = {"seed": args.seed, "seconds": args.seconds, "smoke": args.smoke, "workloads": {}}
    for name in names:
        entry = run_workload(name, args.seed, args.seconds, args.trace, args.smoke, args.out)
        ledger["workloads"][name] = entry
        print_entry(name, entry)
    if args.out is not None:
        (args.out / "ledger.json").write_text(json.dumps(ledger, indent=1, sort_keys=True))
    if len(names) == 1:
        print(contract_line(ledger["workloads"][names[0]]))
    return 0 if all(e["correct"] for e in ledger["workloads"].values()) else 1


if __name__ == "__main__":
    if any(os.environ.get(k) != v for k, v in ENV.items()):
        # PYTHONHASHSEED only takes effect at interpreter start.
        os.environ.update(ENV)
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
