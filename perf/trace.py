"""Per-layer spans, recorded from outside the program.

``Tracer.install()`` wraps each layer's public callables (the TARGETS
table) for one traced pass and ``restore()`` puts everything back.
Callers bind names with ``from x import f``, so a function target is
replaced in every loaded ``repro.*`` module (and the harness's own
workloads module) whose attribute *is* that function; a method target
is replaced on its class.

A span is ``(name, start, end, parent, op)``.  Spans of one op share an
id: a span with no parent (one ``api.solve`` call, one batch call, one
cluster request) opens a new op and its descendants inherit it.  Spans
stay in memory until the pass ends.  A layer's self time is its spans'
duration minus the part covered by their child spans.

The program's own ``repro.obs`` tracing stays off; nothing here imports
``repro`` until ``install()`` resolves the targets.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: The harness module that binds program entry points by name.
HARNESS = "perf.workloads"

Hook = Callable[["Tracer", tuple, dict, Any], None]


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


# -- count hooks: read public results at the boundary where the work happens ----


def _mip_solve(t: "Tracer", args, kwargs, result) -> None:
    s = result.stats
    t.counts["mip.nodes"] += s.nodes_processed
    t.counts["mip.warm_starts"] += s.warm_starts
    t.counts["mip.warm_factor_reuses"] += s.warm_factor_reuses
    t.counts["mip.warm_audit_failures"] += s.warm_audit_failures


def _portfolio(t: "Tracer", args, kwargs, result) -> None:
    t.counts["mip.portfolio.incumbents"] += len(result.incumbents)
    t.counts["mip.portfolio.rejected"] += result.stats.get("rejected", 0)


def _pivots(t: "Tracer", args, kwargs, result) -> None:
    t.counts["lp.pivots"] += result.iterations


def _warm_resolve(t: "Tracer", args, kwargs, result) -> None:
    if result is None:
        t.counts["lp.warm.cold_fallbacks"] += 1


def _batch_simplex(t: "Tracer", args, kwargs, result) -> None:
    t.counts["lp.batch_simplex.iterations"] += result.iterations


def _pdhg_batch(t: "Tracer", args, kwargs, result) -> None:
    t.counts["lp.pdhg_batch.sweeps"] += result.iterations
    t.counts["lp.pdhg_batch.restarts"] += result.restarts


def _charge(t: "Tracer", args, kwargs, result) -> None:
    t.counts["device.sim_busy_s"] += result
    if t.tags:
        t.counts[t.tags[-1] + ".sim_s"] += result


def _transfer(direction: str) -> Hook:
    def hook(t: "Tracer", args, kwargs, result) -> None:
        t.counts[f"device.{direction}_transfers"] += 1
        t.counts[f"device.{direction}_bytes"] += int(_arg(args, kwargs, 1, "nbytes"))

    return hook


def _certify(t: "Tracer", args, kwargs, result) -> None:
    if not result.ok:
        t.counts["check.certify.failures"] += 1


def _lu_factor(t: "Tracer", args, kwargs, result) -> None:
    from repro.la.flops import lu_flops

    t.counts["la.flops"] += lu_flops(_arg(args, kwargs, 0, "a").shape[0])


def _lu_solve(t: "Tracer", args, kwargs, result) -> None:
    from repro.la.flops import trsm_flops

    b = np.asarray(_arg(args, kwargs, 1, "b"))
    t.counts["la.flops"] += 2 * trsm_flops(b.shape[0], 1 if b.ndim == 1 else b.shape[1])


def _batched_lu(t: "Tracer", args, kwargs, result) -> None:
    from repro.la.flops import lu_flops

    k, n = _arg(args, kwargs, 0, "a").shape[:2]
    t.counts["la.flops"] += k * lu_flops(n)


def _pfi_update(t: "Tracer", args, kwargs, result) -> None:
    from repro.la.flops import axpy_flops

    t.counts["la.flops"] += axpy_flops(args[0].n)


#: (target "module:qualname", count hook, engine tag).  The tag marks the
#: spans whose simulated kernel time is attributed to one batch engine.
TARGETS: Tuple[Tuple[str, Optional[Hook], Optional[str]], ...] = (
    ("repro.cluster.service:ClusterService.submit", None, None),
    ("repro.cluster.service:ClusterService.drain", None, None),
    ("repro.cluster.router:ConsistentHashRouter.route", None, None),
    ("repro.cluster.cache:ClusterCache.lookup", None, None),
    ("repro.cluster.cache:ClusterCache.insert", None, None),
    ("repro.cluster.cache:ClusterCache.invalidate", None, None),
    ("repro.cluster.admission:SLOAdmission.admit", None, None),
    ("repro.serve.service:SolveService.submit", None, None),
    ("repro.serve.service:SolveService.drain", None, None),
    ("repro.serve.service:SolveService.advance_to", None, None),
    ("repro.serve.scheduler:WorkerPool.dispatch", None, None),
    ("repro.serve.cache:ResultCache.get", None, None),
    ("repro.serve.cache:ResultCache.put", None, None),
    ("repro.serve.parametric:ParametricCache.lookup", None, None),
    ("repro.serve.parametric:ParametricCache.try_answer", None, None),
    ("repro.api:solve", None, None),
    ("repro.strategies.engine:MeteredEngine.solve_relaxation", None, None),
    ("repro.strategies.hybrid:HybridEngine.solve_relaxation", None, None),
    ("repro.mip.solver:ExecutionEngine.solve_relaxation", None, None),
    ("repro.mip.solver:BranchAndBoundSolver.solve", _mip_solve, None),
    ("repro.mip.batch_solver:BatchedNodeSolver.solve", _mip_solve, None),
    ("repro.mip.portfolio:run_portfolio", _portfolio, None),
    ("repro.lp.simplex:solve_standard_form", _pivots, None),
    ("repro.lp.dual_simplex:dual_simplex_resolve", _pivots, None),
    ("repro.lp.warm:warm_resolve", _warm_resolve, None),
    ("repro.lp.batch_simplex:solve_lp_batch", _batch_simplex, "lp.batch_simplex"),
    ("repro.lp.batch_simplex:solve_lp_batch_on_device", None, "lp.batch_simplex"),
    ("repro.lp.pdhg_batch:solve_lp_pdhg_batch", _pdhg_batch, "lp.pdhg_batch"),
    ("repro.lp.pdhg_batch:solve_lp_pdhg_batch_on_device", None, "lp.pdhg_batch"),
    ("repro.la.dense:lu_factor", _lu_factor, None),
    ("repro.la.dense:lu_solve", _lu_solve, None),
    ("repro.la.batch:batched_lu_factor", _batched_lu, None),
    ("repro.la.updates:ProductFormInverse.ftran", None, None),
    ("repro.la.updates:ProductFormInverse.btran", None, None),
    ("repro.la.updates:ProductFormInverse.update", _pfi_update, None),
    ("repro.la.updates:ProductFormInverse.refactorize", None, None),
    # Every engine charges kernels through this one choke point (the batch
    # engines call it directly), so it stands for the public kernel methods.
    ("repro.device.gpu:Device._charge", _charge, None),
    ("repro.device.gpu:Device.upload", None, None),
    ("repro.device.gpu:Device.download", None, None),
    ("repro.device.gpu:Device.synchronize", None, None),
    ("repro.device.transfer:TransferEngine.host_to_device", _transfer("h2d"), None),
    ("repro.device.transfer:TransferEngine.device_to_host", _transfer("d2h"), None),
    ("repro.check.certificates:certify_mip_solution", _certify, None),
    ("repro.check.certificates:certify_mip_result", _certify, None),
    ("repro.check.certificates:certify_lp_result", _certify, None),
    ("repro.check.certificates:certify_first_order_lp", _certify, None),
    ("repro.guard.budget:GuardContext.note", None, None),
    ("repro.guard.budget:GuardContext.check", None, None),
    ("repro.guard.watchdog:IterationWatchdog.observe", None, None),
    ("repro.guard.escalate:escalate_lp", None, None),
    ("repro.guard.sanitize:sanitize_problem", None, None),
    ("repro.metrics:Metrics.inc", None, None),
    ("repro.metrics:Metrics.add_time", None, None),
    ("repro.metrics:Metrics.observe", None, None),
)

#: Classes whose instances the tracer keeps, to read their public stats
#: after the pass (the cluster builds its SolveServices internally).
KEEP_INSTANCES = ("ClusterService", "SolveService")


def layer_of(target: str) -> str:
    """``repro.<layer>.…`` → layer; ``repro.metrics`` is the obs adapter."""
    parts = target.split(":")[0].split(".")
    layer = parts[1]
    return "obs" if layer == "metrics" else layer


def span_name(target: str) -> str:
    return f"{layer_of(target)}.{target.split(':')[1]}"


def self_times(
    starts: np.ndarray, ends: np.ndarray, parents: np.ndarray
) -> np.ndarray:
    """Per-span self time: duration minus the part child spans cover."""
    durations = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    parents = np.asarray(parents, dtype=np.int64)
    covered = np.zeros_like(durations)
    has_parent = parents >= 0
    np.add.at(covered, parents[has_parent], durations[has_parent])
    return durations - covered


class Tracer:
    """Installs the wrappers, holds the spans and counts of one pass."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        #: Parallel span columns (index = span id, in entry order).
        self.name_ids: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.ops: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.tags: List[str] = []
        self.instances: Dict[str, Dict[int, Any]] = defaultdict(dict)
        self._stack: List[int] = []
        self._num_ops = 0
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- install / restore -------------------------------------------------------

    def install(self) -> None:
        for target, hook, tag in TARGETS:
            module_name, qualname = target.split(":")
            module = importlib.import_module(module_name)
            self.names.append(span_name(target))
            self.layers.append(layer_of(target))
            name_id = len(self.names) - 1
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                if not inspect.isfunction(original):
                    raise TypeError(f"{target} is not a plain method")
                keep = cls_name if cls_name in KEEP_INSTANCES else None
                self._patch(cls, attr, self._wrap(original, name_id, hook, tag, keep))
            else:
                original = getattr(module, qualname)
                wrapper = self._wrap(original, name_id, hook, tag, None)
                for name, mod in list(sys.modules.items()):
                    if mod is None or name.split(".")[0] != "repro" and name != HARNESS:
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)

    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, fn, name_id: int, hook: Optional[Hook], tag: Optional[str],
              keep: Optional[str]):
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, ops, stack, tags = self.parents, self.ops, self._stack, self.tags
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            if stack:
                parent = stack[-1]
                op = ops[parent]
            else:
                parent = -1
                op = self._num_ops
                self._num_ops += 1
            name_ids.append(name_id)
            parents.append(parent)
            ops.append(op)
            ends.append(0.0)
            stack.append(idx)
            if tag is not None:
                tags.append(tag)
            if keep is not None:
                self.instances[keep][id(args[0])] = args[0]
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if tag is not None:
                    tags.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    # -- reading the pass ----------------------------------------------------------

    def by_name(self) -> Dict[str, Tuple[int, float]]:
        """span name → (calls, summed self seconds)."""
        name_ids = np.asarray(self.name_ids, dtype=np.int64)
        selfs = self_times(
            np.asarray(self.starts), np.asarray(self.ends), np.asarray(self.parents)
        )
        calls = np.bincount(name_ids, minlength=len(self.names))
        self_s = np.bincount(name_ids, weights=selfs, minlength=len(self.names))
        return {
            name: (int(calls[i]), float(self_s[i])) for i, name in enumerate(self.names)
        }

    def by_layer(self, by_name: Dict[str, Tuple[int, float]]) -> Dict[str, Tuple[int, float]]:
        """layer → (calls, summed self seconds), folding a ``by_name()`` table."""
        out: Dict[str, Tuple[int, float]] = {}
        for layer, (calls, self_s) in zip(self.layers, by_name.values()):
            seen_calls, seen_self = out.get(layer, (0, 0.0))
            out[layer] = (seen_calls + calls, seen_self + self_s)
        return out

    def to_json(self) -> Dict[str, Any]:
        """The ``<workload>.trace.json`` payload (see README, "Reading a trace")."""
        t0 = self.starts[0] if self.starts else 0.0
        return {
            "span_fields": ["name", "start_s", "end_s", "parent", "op"],
            "names": self.names,
            "layers": self.layers,
            "spans": [
                [self.name_ids[i], self.starts[i] - t0, self.ends[i] - t0,
                 self.parents[i], self.ops[i]]
                for i in range(len(self.starts))
            ],
        }
