"""Command-line interface: solve / generate / info over MPS files.

    python -m repro solve model.mps --strategy cpu_orchestrated
    python -m repro solve model.mps --trace out.json
    python -m repro trace out.json
    python -m repro generate knap-20 -o knap.mps
    python -m repro info model.mps

``solve`` runs branch-and-cut through :func:`repro.api.solve`
(optionally under one of the paper's metered strategy engines, printing
the platform report; ``--node-lp pdhg`` swaps node relaxations to the
restarted first-order engine) and supports checkpointing to /
restarting from a JSON snapshot.  ``--trace out.json`` on ``solve``
exports the run's unified timeline as Chrome trace JSON
(``about://tracing`` / Perfetto); ``trace`` summarizes such a file.
The experiments that write committed artifacts are not here: they are
``benchmarks/bench_*.py``, run by ``make bench`` (the serving sweep is
``benchmarks/bench_s1_serve_throughput.py``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro import obs
from repro.errors import ReproError
from repro.mip.branching import BRANCHING_RULES
from repro.mip.checkpoint import load_snapshot, save_snapshot
from repro.mip.node_selection import SELECTORS
from repro.mip.result import MIPStatus
from repro.mip.snapshot import capture_snapshot, resume_from_snapshot
from repro.mip.solver import SolverOptions
from repro.problems.miplib import MINI_MIPLIB, instance_by_name
from repro.problems.mps import read_mps, write_mps
from repro.reporting import (
    format_bytes,
    format_seconds,
    render_table,
    render_trace,
)
from repro.strategies.registry import metered_strategies


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI (solve / generate / info / list)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GPU-based MIP reproduction: solve, generate, inspect.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve an MPS model")
    solve.add_argument("model", help="path to an MPS file")
    solve.add_argument(
        "--strategy",
        choices=metered_strategies(),
        default=None,
        help="run under a metered strategy engine (§3)",
    )
    solve.add_argument("--branching", choices=sorted(BRANCHING_RULES), default="pseudocost")
    solve.add_argument("--node-selection", choices=sorted(SELECTORS), default="best_first")
    solve.add_argument("--cut-rounds", type=int, default=0)
    solve.add_argument("--node-limit", type=int, default=200_000)
    solve.add_argument(
        "--node-lp",
        choices=["simplex", "pdhg"],
        default="simplex",
        help="node relaxation engine: exact simplex or restarted "
        "first-order PDHG with tolerance-padded bounds",
    )
    solve.add_argument(
        "--checkpoint", default=None, help="write a snapshot here if interrupted"
    )
    solve.add_argument(
        "--restart-from", default=None, help="resume from a snapshot file"
    )
    solve.add_argument(
        "--trace", default=None, metavar="OUT.json",
        help="export the run's timeline as Chrome trace JSON",
    )
    solve.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="host-seconds budget; a mid-solve expiry returns the "
        "anytime answer (incumbent + dual bound + gap) as time_limit",
    )
    solve.add_argument(
        "--sanitize",
        choices=["repair", "warn", "reject"],
        default=None,
        help="run the problem sanitizer first (see docs/robustness.md)",
    )
    solve.add_argument(
        "--mode",
        choices=["exact", "heuristic_first", "heuristic_only"],
        default="exact",
        help="quality-vs-latency contract: exact B&B, portfolio-seeded "
        "B&B, or the portfolio alone with a certified gap "
        "(docs/heuristics.md)",
    )
    solve.add_argument(
        "--gap", type=float, default=None, metavar="REL",
        help="relative-gap target for the non-exact modes (e.g. 0.01)",
    )

    generate = sub.add_parser("generate", help="write a mini-MIPLIB instance")
    generate.add_argument("name", choices=sorted(MINI_MIPLIB))
    generate.add_argument("-o", "--output", required=True)

    info = sub.add_parser("info", help="summarize an MPS model")
    info.add_argument("model")

    sub.add_parser("list", help="list mini-MIPLIB instances")

    trace = sub.add_parser(
        "trace", help="validate and summarize an exported Chrome trace file"
    )
    trace.add_argument("file", help="path to a Chrome trace JSON file")
    trace.add_argument(
        "--limit", type=int, default=20, help="rows in the summary table"
    )

    certify = sub.add_parser(
        "certify",
        help="solve an MPS model, then audit the answer with exact "
        "certificates and cross-solver differential testing",
    )
    certify.add_argument("model", help="path to an MPS file")
    certify.add_argument(
        "--strategy",
        choices=metered_strategies(),
        default=None,
        help="solve under a metered strategy engine before certifying",
    )
    certify.add_argument("--node-limit", type=int, default=200_000)
    certify.add_argument(
        "--skip-differential",
        action="store_true",
        help="certificate audit only (differential re-solves are slower)",
    )

    fuzz = sub.add_parser(
        "fuzz",
        help="randomized certificate/differential/metamorphic testing "
        "with instance shrinking",
    )
    fuzz.add_argument("--budget", type=int, default=100, help="instances to fuzz")
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument(
        "--out", default="fuzz-repros", help="directory for shrunk repro files"
    )
    fuzz.add_argument("--max-vars", type=int, default=9)
    fuzz.add_argument("--max-rows", type=int, default=7)
    fuzz.add_argument("--no-shrink", action="store_true")
    fuzz.add_argument("--no-differential", action="store_true")
    fuzz.add_argument("--no-metamorphic", action="store_true")
    fuzz.add_argument("--no-lp-differential", action="store_true")

    replay = sub.add_parser(
        "replay", help="re-run the failing check stored in a repro file"
    )
    replay.add_argument("repro", help="path to a repro JSON file")

    chaos = sub.add_parser(
        "chaos",
        help="replay seeded fault plans against solve/serve/distributed "
        "and audit every recovery (see docs/fault_tolerance.md)",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--plan", action="append", default=[], metavar="PLAN.json",
        help="replay a saved fault plan (repeatable); replaces the "
        "builtin corpus unless --builtin is also given",
    )
    chaos.add_argument(
        "--builtin", action="store_true",
        help="with --plan: run the builtin corpus as well",
    )
    chaos.add_argument(
        "--save-plans", default=None, metavar="DIR",
        help="write the corpus plans as JSON into DIR and exit",
    )
    chaos.add_argument(
        "--items", type=int, default=8, help="knapsack items per chaos problem"
    )
    chaos.add_argument(
        "--requests", type=int, default=8, help="requests in the serve scenario"
    )
    chaos.add_argument(
        "--no-serve", action="store_true", help="skip the serve scenarios"
    )
    chaos.add_argument(
        "--trace", default=None, metavar="OUT.json",
        help="export the chaos run's timeline as Chrome trace JSON",
    )

    guard = sub.add_parser(
        "guard",
        help="run the pathological corpus through sanitize → solve "
        "under budgets and audit every verdict (docs/robustness.md)",
    )
    guard.add_argument(
        "--deadline", type=float, default=5.0,
        help="per-case host-seconds budget (the anti-hang backstop)",
    )
    guard.add_argument(
        "--case", action="append", default=[], metavar="NAME",
        help="run only this corpus case (repeatable)",
    )
    guard.add_argument(
        "--list", action="store_true", dest="list_cases",
        help="list corpus case names and exit",
    )

    return parser


def _export_trace(tracer, path: str) -> None:
    """Write a tracer's Chrome trace and print a confirmation line."""
    trace = obs.write_chrome_trace(tracer, path)
    print(f"trace     : {path} ({len(trace['traceEvents'])} events)")


def _anytime(status: str) -> bool:
    """True for a report status that stopped on a budget with a partial answer."""
    return status in {s.value for s in MIPStatus if s.anytime}


def cmd_solve(args) -> int:
    """``repro solve``: branch-and-cut an MPS model via :func:`repro.api.solve`."""
    from repro.api import SolveOptions, solve

    problem = read_mps(args.model)
    options = SolverOptions(
        branching=args.branching,
        node_selection=args.node_selection,
        cut_rounds=args.cut_rounds,
        node_limit=args.node_limit,
        node_lp=args.node_lp,
        keep_tree=args.checkpoint is not None,
    )

    if args.restart_from:
        snapshot = load_snapshot(args.restart_from)
        result = resume_from_snapshot(problem, snapshot)
        print(f"restarted from {args.restart_from} ({snapshot.num_leaves} leaves)")
        print(f"status    : {result.status.value}")
        if np.isfinite(result.objective):
            print(f"objective : {result.objective:.6g}")
        return 0 if result.ok else 1

    report = solve(
        problem,
        SolveOptions(
            strategy=args.strategy or "direct",
            solver=options,
            trace=args.trace is not None,
            deadline=args.deadline,
            sanitize=args.sanitize,
            mode=args.mode,
            gap_target=args.gap,
        ),
    )
    result = report.result
    if args.mode != "exact":
        print(f"mode      : {args.mode}")

    if args.strategy:
        # The strategy that answered: a degraded run names its fallback.
        print(f"strategy  : {report.strategy}")
        degradation = report.metrics.get("degradation")
        if degradation is not None:
            print(f"degraded  : {' -> '.join(degradation['chain'])}")
        print(f"status    : {report.status}")
        if report.x is not None:
            print(f"objective : {report.objective:.6g}")
        print(f"nodes     : {report.nodes}")
        print(f"makespan  : {format_seconds(report.makespan_seconds)} (simulated)")
        platform = report.metrics.get("platform")
        if platform is not None:
            print(f"kernels   : {platform['kernels']}")
            print(
                f"transfers : {platform['h2d'] + platform['d2h']} "
                f"({format_bytes(platform['bytes_moved'])})"
            )
    else:
        print(f"status    : {report.status}")
        if report.x is not None:
            print(f"objective : {report.objective:.6g}")
            nonzero = [
                (f"x{j}", report.x[j])
                for j in range(problem.n)
                if abs(report.x[j]) > 1e-9
            ]
            if len(nonzero) <= 30:
                print(render_table(["var", "value"], nonzero))
        print(f"nodes     : {report.nodes}")
        print(f"LP iters  : {report.lp_iterations}")
        if report.status == "heuristic" or _anytime(report.status):
            bound = report.best_bound
            gap = report.gap
            print(f"bound     : {bound:.6g}" if np.isfinite(bound) else "bound     : inf")
            print(f"gap       : {gap:.4%}" if np.isfinite(gap) else "gap       : inf")
        if "sanitize" in report.metrics:
            repaired = report.metrics["sanitize"].get("repaired", [])
            if repaired:
                print(f"sanitized : {', '.join(repaired)}")
        if args.checkpoint and result is not None and result.tree is not None:
            incumbent = report.objective if report.x is not None else -np.inf
            snap = capture_snapshot(result.tree, incumbent, report.x)
            save_snapshot(snap, args.checkpoint)
            print(f"checkpoint: {args.checkpoint} ({snap.num_leaves} open leaves)")

    if "portfolio" in report.metrics:
        pf = report.metrics["portfolio"]
        first = pf.get("first_incumbent_seconds")
        if first is not None:
            print(
                f"portfolio : first incumbent at {format_seconds(first)} "
                f"(simulated), {pf.get('incumbents', 0)} incumbents"
            )
    if args.trace and report.tracer is not None:
        _export_trace(report.tracer, args.trace)
    if report.ok:
        return 0
    if report.status == "heuristic":
        # A certified heuristic answer is what a non-exact mode promised.
        return 0
    if args.deadline is not None and _anytime(report.status):
        # A budgeted run that stopped with a structured anytime answer
        # did what was asked of it.
        return 0
    return 1


def cmd_generate(args) -> int:
    """``repro generate``: write a mini-MIPLIB instance as MPS."""
    problem = instance_by_name(args.name)
    write_mps(problem, args.output)
    print(f"wrote {args.name} ({problem.n} vars) to {args.output}")
    return 0


def cmd_info(args) -> int:
    """``repro info``: summarize an MPS model's shape and types."""
    problem = read_mps(args.model)
    rows = [
        ("name", problem.name),
        ("variables", problem.n),
        ("integer", problem.num_integer),
        ("continuous", problem.n - problem.num_integer),
        ("<= rows", 0 if problem.a_ub is None else problem.a_ub.shape[0]),
        ("= rows", 0 if problem.a_eq is None else problem.a_eq.shape[0]),
        ("pure binary", problem.is_pure_binary),
        ("matrix bytes", format_bytes(problem.matrix_bytes())),
    ]
    print(render_table(["field", "value"], rows))
    return 0


def cmd_list(_args) -> int:
    """``repro list``: print the mini-MIPLIB registry names."""
    for name in sorted(MINI_MIPLIB):
        print(name)
    return 0


def cmd_trace(args) -> int:
    """``repro trace``: validate + summarize a Chrome trace JSON file."""
    try:
        trace = obs.load_trace(args.file)
    except ValueError as exc:
        print(f"invalid: not JSON ({exc})", file=sys.stderr)
        return 1
    problems = obs.validate_chrome_trace(trace)
    if problems:
        for problem in problems[:20]:
            print(f"invalid: {problem}", file=sys.stderr)
        return 1
    events = trace.get("traceEvents", [])
    meta = trace.get("otherData", {})
    spans = [ev for ev in events if ev.get("ph") == "X"]
    print(f"file      : {args.file}")
    if meta.get("trace_id"):
        print(f"trace id  : {meta['trace_id']}")
    print(f"events    : {len(events)} ({len(spans)} spans)")
    rows = obs.summarize_trace_file(trace)
    print()
    print(render_trace(rows[: args.limit], title="time by span (descending)"))
    if len(rows) > args.limit:
        print(f"... {len(rows) - args.limit} more rows (raise --limit)")
    return 0


def cmd_certify(args) -> int:
    """``repro certify``: solve, then independently audit the answer."""
    from repro.api import SolveOptions, solve
    from repro.check import certify_mip_result, differential_mip
    from repro.reporting import render_certificate, render_differential

    problem = read_mps(args.model)
    options = SolverOptions(node_limit=args.node_limit)
    result = solve(
        problem,
        SolveOptions(strategy=args.strategy or "direct", solver=options),
    ).result
    print(f"status    : {result.status.value}")
    if result.x is not None:
        print(f"objective : {result.objective:.6g}")

    certificate = certify_mip_result(problem, result)
    print()
    print(render_certificate(certificate))
    ok = certificate.ok

    if not args.skip_differential:
        diff = differential_mip(problem, node_limit=args.node_limit)
        print()
        print(render_differential(diff))
        ok = ok and diff.ok

    print()
    print("certified: OK" if ok else "certified: FAILED")
    return 0 if ok else 1


def cmd_fuzz(args) -> int:
    """``repro fuzz``: randomized correctness campaign with shrinking."""
    from repro.check import FuzzOptions, run_fuzz
    from repro.reporting import render_fuzz

    options = FuzzOptions(
        budget=args.budget,
        seed=args.seed,
        out_dir=args.out,
        shrink=not args.no_shrink,
        differential=not args.no_differential,
        metamorphic=not args.no_metamorphic,
        lp_differential=not args.no_lp_differential,
        max_vars=args.max_vars,
        max_rows=args.max_rows,
    )
    report = run_fuzz(options, log_fn=print)
    print(render_fuzz(report))
    return 0 if report.ok else 1


def cmd_replay(args) -> int:
    """``repro replay``: re-run the failing check in a repro file."""
    from repro.check import replay_repro
    from repro.reporting import render_fuzz

    report = replay_repro(args.repro)
    print(render_fuzz(report))
    if report.ok:
        print("replay: the stored failure no longer reproduces")
        return 0
    print("replay: still failing")
    return 1


def cmd_chaos(args) -> int:
    """``repro chaos``: replay fault plans and audit every recovery."""
    import os

    from repro.faults.chaos import builtin_corpus, run_chaos
    from repro.faults.plan import FaultPlan
    from repro.reporting import render_chaos

    corpus = builtin_corpus(args.seed)
    if args.save_plans:
        os.makedirs(args.save_plans, exist_ok=True)
        for plan in corpus:
            path = os.path.join(args.save_plans, f"{plan.name}.json")
            plan.save(path)
            print(f"wrote {path}")
        return 0

    plans = None
    if args.plan:
        plans = [FaultPlan.load(path) for path in args.plan]
        if args.builtin:
            plans = corpus + plans
    tracer = None
    if args.trace:
        with obs.tracing() as tracer:
            report = run_chaos(
                plans,
                seed=args.seed,
                items=args.items,
                requests=args.requests,
                serve=not args.no_serve,
                log_fn=print,
            )
    else:
        report = run_chaos(
            plans,
            seed=args.seed,
            items=args.items,
            requests=args.requests,
            serve=not args.no_serve,
            log_fn=print,
        )
    print()
    print(render_chaos(report))
    if args.trace and tracer is not None:
        _export_trace(tracer, args.trace)
    print()
    print("chaos: OK" if report.ok else "chaos: FAILED")
    return 0 if report.ok else 1


def cmd_guard(args) -> int:
    """``repro guard``: pathological corpus through the guard stack."""
    from repro.guard.gauntlet import run_gauntlet
    from repro.problems.pathological import case_by_name, pathological_corpus
    from repro.reporting import render_guard

    if args.list_cases:
        for case in pathological_corpus():
            print(f"{case.name:<22} expect={case.expect:<10} {case.notes}")
        return 0
    cases = None
    if args.case:
        try:
            cases = [case_by_name(name) for name in args.case]
        except KeyError as exc:
            print(f"error: unknown case {exc}", file=sys.stderr)
            return 2
    report = run_gauntlet(cases=cases, deadline=args.deadline, log_fn=print)
    print()
    print(render_guard(report))
    print()
    print("guard: OK" if report.ok else "guard: FAILED")
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code (2 on any error)."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed usage and "error: ..." (or --help)
        return exc.code
    handlers = {
        "solve": cmd_solve,
        "generate": cmd_generate,
        "info": cmd_info,
        "list": cmd_list,
        "trace": cmd_trace,
        "certify": cmd_certify,
        "fuzz": cmd_fuzz,
        "replay": cmd_replay,
        "chaos": cmd_chaos,
        "guard": cmd_guard,
    }
    try:
        return handlers[args.command](args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
