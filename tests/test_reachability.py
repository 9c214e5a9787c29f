"""Static reachability gate: nothing public sits in ``src/`` unreferenced.

Every public top-level function / class under ``src/repro/`` must be named
from another file of ``src/`` (``__init__`` re-exports do not count),
``benchmarks/``, ``examples/`` or ``perf/`` — directly, or through
definitions of its own module that are — or be listed in :data:`KEPT` with
the reason it stays.  Every public method or property of a public class
must be named in one of those files too (its own included): as an
attribute, or by a string that targets it (a ``getattr`` name, a
``perf/trace.py`` patch target).  Both checks go by name, so a method
shares its callers with every method of that name.  The measured half of
the audit (a call recorder over the experiments, examples, ledger
workloads and CLI) is described in DESIGN.md "The device is a meter";
this is the half that can run in tier-1.
"""

import ast
import re
from functools import lru_cache
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
    "repro.serve.request.SolveResponse.raise_for_outcome": "response API: the typed error of a non-OK outcome (docs/robustness.md)",
    "repro.cluster.cache.ClusterCache.replica_len": "cache observability: one shard's replica size, what the cluster cache and chaos tests read",
    "repro.check.certificates.CertificateReport.raise_for_failures": "check/ report API: the raising form (docs/testing.md)",
    "repro.check.differential.DifferentialReport.raise_for_failures": "check/ report API: the raising form (docs/testing.md)",
    "repro.check.metamorphic.MetamorphicReport.raise_for_failures": "check/ report API: the raising form (docs/testing.md)",
    "repro.obs.span.Tracer.find": "obs query: a tracer's spans by name, how a test reads a recorded trace",
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


def _targets(node):
    """Names that identifier-shaped strings target (``"comm_nbytes"``,
    ``"repro.device.gpu:Device.download"``): their last part."""
    return {
        re.split(r"[.:]", n.value)[-1]
        for n in ast.walk(node)
        if isinstance(n, ast.Constant) and isinstance(n.value, str) and re.fullmatch(r"[\w.:]+", n.value)
    }


def _module(path):
    return ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)


@lru_cache(maxsize=None)
def _trees():
    src = sorted((ROOT / "src" / "repro").rglob("*.py"))
    others = [p for d in ("benchmarks", "examples", "perf") for p in sorted((ROOT / d).rglob("*.py"))]
    return src, {p: ast.parse(p.read_text()) for p in src + others}


def _unreferenced():
    src, trees = _trees()
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


def _unreferenced_methods():
    src, trees = _trees()
    named = set().union(
        *(_mentions(t) | _targets(t) for p, t in trees.items() if p.name != "__init__.py")
    )
    for path in src:
        for cls in trees[path].body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for m in cls.body:
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("_") and m.name not in named:
                    key = f"{_module(path)}.{cls.name}.{m.name}"
                    if key not in KEPT:
                        yield key


def test_every_public_definition_is_referenced_or_kept_on_purpose():
    missing = sorted(_unreferenced())
    assert not missing, "unreferenced and not in KEPT:\n  " + "\n  ".join(missing)


def test_every_public_method_is_named_or_kept_on_purpose():
    missing = sorted(_unreferenced_methods())
    assert not missing, "methods named nowhere and not in KEPT:\n  " + "\n  ".join(missing)


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
