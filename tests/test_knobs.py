"""Static knob gate: every setting in ``src/`` has a caller that sets it.

A *knob* is a field of an options-type dataclass (a ``@dataclass`` whose
name ends in ``Options`` / ``Policy`` / ``Config`` / ``Spec``) or a
defaulted parameter of a public ``src/repro`` function, or of a public
class's constructor or public method.  The fields of other dataclasses
are records the code fills in, not settings.  Each knob must be set by
some call in ``src/``, ``benchmarks/``, ``examples/`` or ``perf/`` — by
keyword, by position, through ``dataclasses.replace`` or by an attribute
store on another object (``options.<name> = …``; a store on ``self``
sets the storing class's own attribute) — or be listed in
:data:`KEPT_KNOBS` with the reason it stays.
A knob nothing sets is a named constant next to its one use (DESIGN.md
"Every knob has a caller").  Calls are matched by name, as in
``tests/test_reachability.py``; run this file as a script to print the
counts.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OPTION_SUFFIXES = ("Options", "Policy", "Config", "Spec")
CALLER_DIRS = ("src", "benchmarks", "examples", "perf")

_API_PORTFOLIO = "repro.api: the portfolio budget a caller passes in SolveOptions.portfolio; tests/mip/test_portfolio.py sizes it down to stay fast"
_API_REQUEST = "repro.api: a request's SolveOptions mode / gap_target / deadline as a client sends it; tests/check/test_cluster_differential.py replays them"
_RETRY_FORMAT = "file format: a FaultPlan's RetryPolicy JSON (repro chaos --plan)"
_SNAPSHOT_FORMAT = "file format: a snapshot is its leaf boxes plus the incumbent"
_S2 = "workload: the S2 traffic and instance pool (bench_s2_cluster, perf/ cluster workloads)"
_INSTANCE = "instance: a problems/ generator parameter"
_AUTOSCALER = "tests/test_reachability.py keeps the autoscaler"
_INEXACT = "check/ certificate: the declared accuracy of an inexact solver's claim; tests/check/test_first_order.py audits claims on both sides of it"
_DIVERGENCE = "named test: tests/lp/test_pdhg_lockstep.py freezes a runaway PDHG member at factor 1.01 (its KKT score saturates near 1.16, never near the 1e10 default)"

#: Knobs nothing outside ``tests/`` sets, kept on purpose.  Keys are
#: ``module.Class.field`` for a dataclass field and ``module.function.param``
#: / ``module.Class.method.param`` for a parameter (``__init__`` for a
#: constructor); all must exist.
KEPT_KNOBS = {
    "repro.mip.portfolio.PortfolioOptions.n_jobs": _API_PORTFOLIO + " and varies it to pin width invariance",
    "repro.mip.portfolio.PortfolioOptions.fj_sweeps": _API_PORTFOLIO,
    "repro.mip.portfolio.PortfolioOptions.lns_rounds": _API_PORTFOLIO,
    "repro.mip.portfolio.PortfolioOptions.lns_node_limit": _API_PORTFOLIO,
    "repro.serve.service.SolveService.submit.mode": _API_REQUEST,
    "repro.serve.service.SolveService.submit.gap_target": _API_REQUEST,
    "repro.serve.service.SolveService.submit.solve_deadline": _API_REQUEST,
    "repro.cluster.service.ClusterService.submit.mode": _API_REQUEST,
    "repro.cluster.service.ClusterService.submit.gap_target": _API_REQUEST,
    "repro.cluster.service.ClusterService.submit.solve_deadline": _API_REQUEST,
    "repro.faults.plan.RetryPolicy.base_delay": _RETRY_FORMAT,
    "repro.faults.plan.RetryPolicy.factor": _RETRY_FORMAT,
    "repro.faults.plan.RetryPolicy.jitter": _RETRY_FORMAT,
    "repro.mip.snapshot.SearchSnapshot.from_arrays.incumbent_objective": _SNAPSHOT_FORMAT,
    "repro.mip.snapshot.SearchSnapshot.from_arrays.incumbent_x": _SNAPSHOT_FORMAT,
    "repro.cluster.traffic.TrafficSpec.pareto_alpha": _S2,
    "repro.cluster.traffic.TrafficSpec.priority_mix": _S2,
    "repro.cluster.traffic.TrafficSpec.zipf_s": _S2,
    "repro.cluster.traffic.s2_pool.base_items": _S2,
    "repro.cluster.traffic.s2_pool.shape_spread": _S2,
    "repro.serve.workload.replay.timeout": "workload: the queue timeout every request of a replayed stream carries (tests/serve/test_service.py)",
    "repro.problems.assignment.generate_generalized_assignment.tightness": _INSTANCE,
    "repro.problems.binpacking.generate_bin_packing.capacity": _INSTANCE,
    "repro.problems.binpacking.generate_bin_packing.seed": _INSTANCE,
    "repro.problems.knapsack.generate_knapsack.capacity_ratio": _INSTANCE,
    "repro.problems.multiknapsack.generate_multiknapsack.capacity_ratio": _INSTANCE,
    "repro.problems.setcover.generate_set_cover.density": _INSTANCE,
    "repro.problems.tsp.generate_tsp.seed": _INSTANCE,
    "repro.cluster.service.AutoscalePolicy.min_groups": _AUTOSCALER,
    "repro.cluster.service.AutoscalePolicy.max_groups": _AUTOSCALER,
    "repro.cluster.service.AutoscalePolicy.up_outstanding": _AUTOSCALER,
    "repro.cluster.service.AutoscalePolicy.down_outstanding": _AUTOSCALER,
    "repro.cluster.service.AutoscalePolicy.cooldown": _AUTOSCALER,
    "repro.cluster.service.ClusterService.__init__.autoscale": _AUTOSCALER,
    "repro.strategies.big_mip.BigMipEngine.__init__.intra_node": "tests/test_reachability.py keeps BigMipEngine's NVLink path (tests/device/test_group.py)",
    "repro.mip.solver.SolverOptions.probe_root": "tests/test_reachability.py keeps mip/probing (§3.3); this is the driver's one way in",
    "repro.guard.escalate.escalate_lp.options": "tests/test_reachability.py keeps the guard ladder; tests/guard/test_escalate.py climbs it with max_iterations=1",
    "repro.check.differential.differential_warm_lp.perturbations": "tests/test_reachability.py keeps the warm LP lane; tests/check/test_warm_differential.py sweeps it",
    "repro.check.differential.differential_warm_lp.seed": "tests/test_reachability.py keeps the warm LP lane; tests/check/test_warm_differential.py sweeps it",
    "repro.check.differential.differential_cluster.policy": "tests/test_reachability.py keeps the cluster lane; tests/check/test_cluster_differential.py replays under a 4-wide batching policy",
    "repro.check.certificates.certify_first_order_lp.eps": _INEXACT,
    "repro.check.certificates.certify_lp_result.feasibility_tol": _INEXACT,
    "repro.check.certificates.certify_lp_result.optimality_tol": _INEXACT,
    "repro.check.certificates.certify_mip_solution.feasibility_tol": _INEXACT,
    "repro.check.certificates.certify_mip_solution.integrality_tol": _INEXACT,
    "repro.check.differential.differential_mip.strategies": "stay fast: tests/check/test_differential.py and test_warm_differential.py skip the four metered engines",
    "repro.check.fuzz.run_fuzz.solve_fn": "named test: tests/check/test_fuzz.py plants a wrong solver to prove a failure is caught, shrunk and replayed",
    "repro.check.fuzz.replay_repro.solve_fn": "named test: tests/check/test_fuzz.py replays a repro under the wrong and the honest solver",
    "repro.cluster.cache.ClusterCache.__init__.capacity": "named test: tests/serve/test_cache_properties.py evicts at small capacities",
    "repro.cluster.cache.ClusterCache.__init__.replica_capacity": "named test: tests/cluster/test_cluster_cache.py and tests/serve/test_cache_properties.py evict replicas at small capacities",
    "repro.serve.parametric.ParametricCache.__init__.capacity": "named test: tests/serve/test_parametric.py evicts at capacity 2 and turns the path off at 0",
    "repro.cluster.service.ClusterService.__init__.spill_depth": "named test: tests/cluster/test_golden_cluster_streams.py replays streams recorded at spill_depth=2",
    "repro.guard.budget.GuardContext.__init__.watchdog": _DIVERGENCE,
    "repro.guard.watchdog.WatchdogOptions.diverge_factor": _DIVERGENCE,
    "repro.lp.batch_simplex.solve_lp_batch.max_iterations": "named test: tests/lp/test_batch_simplex.py reaches the lockstep ITERATION_LIMIT path with a cap of 1",
    "repro.lp.warm.warm_resolve.options": "named test: tests/lp/test_executed_equals_charged.py charges the warm dual's interval refactor at intervals 1 and 2",
    "repro.mip.solver.SolverOptions.solution_pool_size": "named test: tests/mip/test_solution_pool.py reads a pool deeper than the incumbent",
    "repro.obs.span.Tracer.__init__.clock": "named test: tests/obs/test_span.py and test_export.py tick a deterministic clock so span times are exact",
    "repro.api.SolveOptions.engine": "repro.api: a caller's own engine instance; the golden search traces and tests/mip/test_pdhg_nodes.py hand one in to read its devices",
}


def _module(path):
    return ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Call):
        return _name(node.func)
    return None


def _is_options(cls):
    dataclass = any(_name(d) == "dataclass" for d in cls.decorator_list)
    return dataclass and cls.name.endswith(OPTION_SUFFIXES)


def _fields(cls):
    """The dataclass's field names, in order."""
    return [
        s.target.id
        for s in cls.body
        if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name) and "ClassVar" not in ast.unparse(s.annotation)
    ]


def _params(fn, *, bound):
    """``(positional names, defaulted names)`` of a def, ``self`` dropped."""
    a = fn.args
    pos = [p.arg for p in a.posonlyargs + a.args]
    defaulted = pos[len(pos) - len(a.defaults):] if a.defaults else []
    defaulted = defaulted + [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    static = any(_name(d) == "staticmethod" for d in fn.decorator_list)
    if bound and not static and pos:
        pos = pos[1:]
    return pos, defaulted


def _knobs():
    """``{key: (call name, positional names, knob name, callers' class)}``."""
    out = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        mod = _module(path)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                pos, defaulted = _params(node, bound=False)
                for p in defaulted:
                    out[f"{mod}.{node.name}.{p}"] = (node.name, pos, p, None)
            if not isinstance(node, ast.ClassDef):
                continue
            if _is_options(node):
                names = _fields(node)
                for f in names:
                    out[f"{mod}.{node.name}.{f}"] = (node.name, names, f, node.name)
                continue
            if node.name.startswith("_"):
                continue
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                if fn.name == "__init__":
                    call = node.name
                elif fn.name.startswith("_"):
                    continue
                else:
                    call = fn.name
                pos, defaulted = _params(fn, bound=True)
                for p in defaulted:
                    out[f"{mod}.{node.name}.{fn.name}.{p}"] = (call, pos, p, None)
    return out


def _dict_keys(node):
    """Keys of every ``dict(k=...)`` call and ``{"k": ...}`` display in ``node``."""
    keys = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Call) and _name(n.func) == "dict":
            keys.update(k.arg for k in n.keywords if k.arg)
        elif isinstance(n, ast.Dict):
            keys.update(k.value for k in n.keys if isinstance(k, ast.Constant) and isinstance(k.value, str))
    return keys


class _Calls(ast.NodeVisitor):
    """What each call name is given, plus every attribute store.

    A ``**`` spread sets the keys of the dicts built in its function or
    module.
    """

    def __init__(self):
        self.keywords = {}  # call name -> keyword names
        self.positions = {}  # call name -> largest positional count (inf: ``*`` spread)
        self.stores = set()  # (attribute, enclosing class or None)
        self._classes = [(None, [])]
        self._spread = [set()]

    def visit_Module(self, node):
        self._spread = [_dict_keys(node)]
        self.generic_visit(node)

    def visit_FunctionDef(self, node):
        self._spread.append(self._spread[-1] | _dict_keys(node))
        self.generic_visit(node)
        self._spread.pop()

    def visit_ClassDef(self, node):
        self._classes.append((node.name, [_name(b) for b in node.bases]))
        self.generic_visit(node)
        self._classes.pop()

    def _targets(self, call):
        name = _name(call.func)
        if name == "__init__" and isinstance(call.func, ast.Attribute) and _name(call.func.value) == "super":
            return [b for b in self._classes[-1][1] if b]
        return [name] if name else []

    def visit_Call(self, node):
        npos = len(node.args)
        if any(isinstance(a, ast.Starred) for a in node.args):
            npos = float("inf")
        for target in self._targets(node):
            kws = self.keywords.setdefault(target, set())
            for k in node.keywords:
                kws.update([k.arg] if k.arg else self._spread[-1])
            self.positions[target] = max(self.positions.get(target, 0), npos)
        self.generic_visit(node)

    def _store(self, target):
        for t in ast.walk(target):
            if isinstance(t, ast.Attribute) and isinstance(t.ctx, ast.Store):
                # ``self.<name> = …`` sets the storing class's own attribute,
                # never another class's option field of the same name.
                if not (isinstance(t.value, ast.Name) and t.value.id == "self"):
                    self.stores.add((t.attr, self._classes[-1][0]))

    def visit_Assign(self, node):
        for t in node.targets:
            self._store(t)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        self._store(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node):
        self._store(node.target)
        self.generic_visit(node)


def _calls(dirs):
    calls = _Calls()
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            calls.visit(ast.parse(path.read_text()))
    return calls


def _is_set(knob, calls):
    call, pos, name, owner = knob
    if name in calls.keywords.get(call, ()):
        return True
    if name in pos and pos.index(name) < calls.positions.get(call, 0):
        return True
    if owner is not None:
        if name in calls.keywords.get("replace", ()):
            return True
        if any(attr == name and cls != owner for attr, cls in calls.stores):
            return True
    return False


def unset_knobs(dirs=CALLER_DIRS):
    calls = _calls(dirs)
    return sorted(k for k, knob in _knobs().items() if not _is_set(knob, calls))


def test_every_knob_has_a_caller_or_a_reason():
    missing = [k for k in unset_knobs() if k not in KEPT_KNOBS]
    assert not missing, "set by no caller outside tests and not in KEPT_KNOBS:\n  " + "\n  ".join(missing)


def test_kept_knobs_exist():
    stale = sorted(set(KEPT_KNOBS) - set(_knobs()))
    assert not stale, "KEPT_KNOBS names no knob that exists:\n  " + "\n  ".join(stale)


if __name__ == "__main__":
    knobs = _knobs()
    unset = unset_knobs()
    nowhere = set(unset_knobs(CALLER_DIRS + ("tests",)))
    fields = [k for k, v in knobs.items() if v[3] is not None]
    print(f"option fields: {len(fields)}, unset outside tests: {sum(k in unset for k in fields)} "
          f"(by no code: {sum(k in nowhere for k in fields)})")
    params = [k for k in knobs if k not in fields]
    print(f"defaulted public parameters: {len(params)}, unset outside tests: {sum(k in unset for k in params)} "
          f"(by no code: {sum(k in nowhere for k in params)})")
    for k in unset:
        print(("  kept  " if k in KEPT_KNOBS else "  ") + k)
