"""Static reachability gate: nothing public sits in ``src/`` unreferenced.

Every public top-level function / class under ``src/repro/`` must be named
from another file of ``src/`` (``__init__`` re-exports do not count),
``benchmarks/``, ``examples/`` or ``perf/`` — directly, or through
definitions of its own module that are — or be listed in :data:`KEPT` with
the reason it stays.  The measured half of the audit (a call recorder over
the experiments, examples, ledger workloads and CLI) is described in
DESIGN.md "The device is a meter"; this is the half that can run in tier-1.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFS = (ast.FunctionDef, ast.ClassDef)

#: Unreached on purpose.  Keys are ``module.name`` for what the gate would
#: flag, ``module`` / ``module.Class.method`` for what the call recorder
#: found unentered but another file still names; all must exist.
KEPT = {
    "repro.check.certificates.certify_first_order_lp": "check/ certificate: the first-order answers' audit",
    "repro.check.differential.differential_warm_lp": "check/ lane: warm vs cold LP referee",
    "repro.check.differential.differential_cluster": "check/ lane: cluster vs single service",
    "repro.guard.budget.ManualClock": "deadline path: the deterministic clock its budgets are tested on",
    "repro.guard.watchdog.GuardState": "guard ladder: the Protocol a watched iterate satisfies",
    "repro.obs.bench.load_bench_json": "input validation: the schema-checking reader of BENCH_*.json",
    "repro.obs.export.to_jsonl_lines": "ROADMAP item 7: span records as the ledger's source",
    "repro.obs.export.write_jsonl": "ROADMAP item 7 (with to_jsonl_lines)",
    "repro.problems.binpacking.generate_bin_packing": "problems/ generator: public instance corpus",
    "repro.problems.binpacking.first_fit_decreasing_bins": "problems/ generator: its reference heuristic",
    "repro.problems.tsp.generate_tsp": "problems/ generator: public instance corpus",
    "repro.problems.tsp.tour_from_solution": "problems/ generator: decodes its solutions",
    "repro.problems.tsp.tour_length": "problems/ generator: scores its solutions",
    "repro.mip.checkpoint": "snapshot (de)serialisation: recovery path",
    "repro.guard.escalate": "guard ladder rungs: entered only when an LP comes back NUMERICAL or at ITERATION_LIMIT",
    "repro.comm.mpi.SimMPI._maybe_complete_collective": "§2 platform: the collectives of the simulated MPI",
    "repro.cluster.service.ClusterService.drain_group": "membership change: graceful half of kill_group",
    "repro.cluster.service.ClusterService._autoscale_step": "the autoscaler (off in every committed stream)",
    "repro.cluster.router.LeastLoadedRouter": "overflow / alternative routing policy, differential-tested",
    "repro.strategies.big_mip.BigMipEngine": "intra_node=True: §3.1's direct GPU-GPU fast path (allreduce_seconds)",
}


def _mentions(node):
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    return out


def _module(path):
    return ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)


def _unreferenced():
    src = sorted((ROOT / "src" / "repro").rglob("*.py"))
    others = [p for d in ("benchmarks", "examples", "perf") for p in sorted((ROOT / d).rglob("*.py"))]
    trees = {p: ast.parse(p.read_text()) for p in src + others}
    named = {p: _mentions(t) for p, t in trees.items() if p.name != "__init__.py"}
    for path in src:
        defs = {n.name: n for n in trees[path].body if isinstance(n, DEFS)}
        live = set().union(*(names for other, names in named.items() if other != path))
        for stmt in trees[path].body:  # module-level code is always live
            if not isinstance(stmt, DEFS):
                live |= _mentions(stmt)
        live |= {name for name in defs if f"{_module(path)}.{name}" in KEPT}
        todo = [name for name in defs if name in live]
        seen = set(todo)
        while todo:  # what a live definition names in its own module is live
            for name in _mentions(defs[todo.pop()]) & defs.keys() - seen:
                seen.add(name)
                todo.append(name)
        yield from (f"{_module(path)}.{n}" for n in defs if not n.startswith("_") and n not in seen)


def test_every_public_definition_is_referenced_or_kept_on_purpose():
    missing = sorted(_unreferenced())
    assert not missing, "unreferenced and not in KEPT:\n  " + "\n  ".join(missing)


def test_kept_entries_exist():
    defined = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        defined.add(_module(path))
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, DEFS):
                defined.add(f"{_module(path)}.{node.name}")
                defined.update(f"{_module(path)}.{node.name}.{m.name}" for m in node.body if isinstance(m, DEFS))
    stale = sorted(set(KEPT) - defined)
    assert not stale, "KEPT names nothing that exists:\n  " + "\n  ".join(stale)
