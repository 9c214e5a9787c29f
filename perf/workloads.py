"""The five ledger workloads: seeded inputs, one pass, reference answers.

Every workload has a *pinned base* (instance shapes, generator seeds,
the base request stream) and ``--seed`` draws a small perturbation of
it: a ±0.03% objective jitter for the MIPs, a ±0.0006% rhs/objective
jitter for the LP batches, ±10% interarrival-gap jitter for the streams.
Branch-and-bound tree sizes and the admission controller at the
capacity knee are both chaotic in their inputs (measured: 2x swings in
node counts and 31% vs 57% shed between fully re-drawn seeds), so
re-drawing everything would bury any change under input variance.
README.md has the numbers.

The program under test receives only the generated inputs, through
public entry points; reference optima come from HiGHS via scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Tuple

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.api import SolveOptions, solve
from repro.cluster import (
    S2_SLO,
    ClusterService,
    TrafficSpec,
    heavy_tailed_stream,
    s2_pool,
)
from repro.device.gpu import Device
from repro.device.spec import V100
from repro.errors import ReproError, ServiceSaturated
from repro.lp.batch_simplex import solve_lp_batch_on_device
from repro.lp.pdhg import PDHGOptions
from repro.lp.pdhg_batch import solve_lp_pdhg_batch_on_device
from repro.lp.pdhg_crossover import (
    CROSSOVER_AGREE_RTOL,
    CROSSOVER_EPS,
    crossover_instances,
)
from repro.lp.problem import LinearProgram
from repro.lp.result import LPStatus
from repro.mip.problem import MIPProblem
from repro.mip.solver import SolverOptions
from repro.problems.knapsack import generate_knapsack
from repro.problems.random_mip import generate_random_mip
from repro.serve.batching import BatchingPolicy
from repro.serve.request import Outcome, fingerprint

#: Relative objective tolerance for exact LP answers.
LP_RTOL = 1e-6
#: ... and for branch-and-bound answers (the solver's own mip_gap is 1e-6).
MIP_RTOL = 1e-5
#: Multiplicative jitter the seed applies to each MIP's objective, to each
#: LP batch's objective and rhs, and to the streams' interarrival gaps.
#: Tree size and PDHG's restart schedule respond to data in jumps, not
#: smoothly: these are the largest jitters at which most seeds still walk
#: the base instance's path (see README, "What the seed does").
MIP_JITTER = 3e-4
LP_JITTER = 6e-6
GAP_JITTER = 0.10


@dataclass
class Answer:
    """One op's outcome, in the shape the scorer needs."""

    #: Which problem (and reference optimum) this op answered.
    key: Hashable
    #: "ok" (an answer was delivered), "shed" (refused by SLO admission,
    #: a designed outcome) or "failed" (raised, rejected, timed out, hit
    #: a safety cap).
    outcome: str
    #: Simulated seconds from arrival / call to answer.
    latency: float = math.nan
    objective: float = math.nan
    #: Proven upper bound on the optimum; the objective for exact answers.
    bound: float = math.nan
    x: Optional[np.ndarray] = None
    #: The answer claims optimality; otherwise it claims
    #: ``objective <= optimum <= bound``.
    proven: bool = True
    rtol: float = LP_RTOL
    #: Which engine answered, where a workload compares engines.
    engine: str = ""


@dataclass
class Inputs:
    """What ``build`` hands to ``run`` (and to the reference solver)."""

    problems: Dict[Hashable, Any]
    #: Workload-specific schedule over ``problems`` keys.
    plan: Any = None
    extra: Dict[str, Any] = field(default_factory=dict)


def _jitter(rng: np.random.Generator, arr: np.ndarray, rel: float) -> np.ndarray:
    return arr * (1.0 + rel * rng.uniform(-1.0, 1.0, np.shape(arr)))


def _rng(workload: "Workload", seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOAD_NAMES.index(workload.name), seed])


# -- reference answers ---------------------------------------------------------


def highs_optimum(problem) -> float:
    """Optimal objective of a maximization LP/MIP by HiGHS (independent oracle)."""
    constraints = []
    if problem.a_ub is not None:
        constraints.append(LinearConstraint(problem.a_ub, -np.inf, problem.b_ub))
    if problem.a_eq is not None:
        constraints.append(LinearConstraint(problem.a_eq, problem.b_eq, problem.b_eq))
    integer = getattr(problem, "integer", None)
    res = milp(
        -problem.c,
        constraints=constraints,
        integrality=None if integer is None else integer.astype(int),
        bounds=Bounds(problem.lb, problem.ub),
        options={"mip_rel_gap": 0.0},
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS reference failed: {res.message}")
    return -float(res.fun)


def reference(inputs: Inputs) -> Dict[Hashable, float]:
    """HiGHS optimum per distinct problem; computed outside ``setup_s``."""
    return {key: highs_optimum(p) for key, p in inputs.problems.items()}


def feasible(problem, x: np.ndarray, tol: float) -> bool:
    """Numpy feasibility check of a delivered point (bounds, rows, integrality)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.n,) or not np.all(np.isfinite(x)):
        return False
    if np.any(x < problem.lb - tol) or np.any(x > problem.ub + tol):
        return False
    if problem.a_ub is not None:
        slack = problem.b_ub - problem.a_ub @ x
        if np.any(slack < -tol * (1.0 + np.abs(problem.b_ub))):
            return False
    if problem.a_eq is not None:
        resid = np.abs(problem.a_eq @ x - problem.b_eq)
        if np.any(resid > tol * (1.0 + np.abs(problem.b_eq))):
            return False
    integer = getattr(problem, "integer", None)
    if integer is not None and np.any(np.abs(x[integer] - np.round(x[integer])) > tol):
        return False
    return True


def answer_correct(problem, optimum: float, a: Answer) -> bool:
    """Does a delivered answer agree with the independent reference?"""
    if a.outcome != "ok" or not math.isfinite(a.objective):
        return False
    tol = a.rtol * max(1.0, abs(optimum))
    if a.x is not None:
        if not feasible(problem, a.x, a.rtol):
            return False
        if abs(float(problem.c @ a.x) - a.objective) > tol:
            return False
    if a.proven:
        return abs(a.objective - optimum) <= tol
    return a.objective <= optimum + tol and optimum <= a.bound + tol


# -- workloads -------------------------------------------------------------------


class Workload:
    """One set of inputs the benchmark runs."""

    name = ""
    why = ""
    #: "closed" (one client, next op after the previous answer) or "open"
    #: (requests arrive on the generated schedule).
    loop = "closed"
    #: Simulated-latency limit an answer must meet (open loop only).
    slo = math.inf
    #: Human-readable parameters for the ledger.
    params: Dict[str, Any] = {}

    def build(self, seed: int, smoke: bool = False) -> Inputs:
        raise NotImplementedError

    def run(self, inputs: Inputs) -> Tuple[List[Answer], float]:
        """One pass: every op once; returns (answers, simulated makespan)."""
        raise NotImplementedError


def _mip(rng: np.random.Generator, kind: str, a: int, b: Any) -> MIPProblem:
    """One pinned corpus member with a ±MIP_JITTER objective jitter."""
    if kind == "knap":
        p = generate_knapsack(a, seed=b, correlation="strong")
        p.name = f"knap-strong-{a}-s{b}"
    else:
        rows, gen_seed = b
        p = generate_random_mip(a, rows, seed=gen_seed, integer_fraction=1.0)
        p.name = f"rand-{a}x{rows}-s{gen_seed}"
    p.c = _jitter(rng, p.c, MIP_JITTER)
    return p


class _TreeWorkload(Workload):
    corpus: Tuple[Tuple[str, int, Any], ...] = ()
    #: The one corpus member a --smoke pass solves.
    smoke_member = 0
    node_limit = 0
    mode = "exact"
    #: Is stopping at ``node_limit`` a designed outcome (else a failure)?
    cap_is_answer = False

    def build(self, seed: int, smoke: bool = False) -> Inputs:
        rng = _rng(self, seed)
        corpus = (self.corpus[self.smoke_member],) if smoke else self.corpus
        return Inputs(
            problems={i: _mip(rng, *spec) for i, spec in enumerate(corpus)}
        )

    def run(self, inputs: Inputs) -> Tuple[List[Answer], float]:
        answers: List[Answer] = []
        makespan = 0.0
        for key, problem in inputs.problems.items():
            options = SolveOptions(
                strategy="hybrid",
                mode=self.mode,
                solver=SolverOptions(node_limit=self.node_limit),
            )
            try:
                report = solve(problem, options)
            except ReproError:
                answers.append(Answer(key, "failed"))
                continue
            makespan += report.makespan_seconds
            delivered = report.status == "optimal" or (
                self.cap_is_answer
                and report.status == "node_limit"
                and report.x is not None
            )
            answers.append(
                Answer(
                    key,
                    "ok" if delivered else "failed",
                    latency=report.makespan_seconds,
                    objective=report.objective,
                    bound=report.best_bound,
                    x=report.x,
                    proven=report.status == "optimal",
                    rtol=MIP_RTOL,
                )
            )
        return answers, makespan


class TreeExact(_TreeWorkload):
    name = "tree-exact"
    why = (
        "7 MIPs to proven optimality by api.solve(hybrid, warm start on): "
        "la+lp+device dominate; serve/cluster/batch LP do nothing"
    )
    # Generator seeds pinned so every tree is 50-160 nodes (~780 in all):
    # a pass stays ~2 s and the 1500-node safety cap is never in play.
    corpus = (
        ("knap", 18, 3),
        ("knap", 20, 4),
        ("knap", 22, 3),
        ("knap", 28, 3),
        ("knap", 30, 1),
        ("rand", 16, (10, 1)),
        ("rand", 24, (16, 4)),
    )
    smoke_member = 2
    node_limit = 1500
    params = {
        "loop": "closed, 1 client",
        "strategy": "hybrid",
        "mode": "exact",
        "node_limit": 1500,
        "corpus": "knap-strong n=18/s3 20/s4 22/s3 28/s3 30/s1, rand 16x10/s1 24x16/s4",
    }


class TreePortfolio(_TreeWorkload):
    name = "tree-portfolio"
    why = (
        "5 hard MIPs, heuristic_first, 150-node budget: the only workload "
        "where mip.portfolio+check run beside the tree and the gap is not 0"
    )
    # The E16 corpus minus its two costliest members (36/s2, 40/s5: 1.5 s
    # of portfolio each) plus knapsack 30/s5 and 28/s4.
    corpus = (
        ("knap", 40, 3),
        ("rand", 16, (10, 4)),
        ("knap", 30, 2),
        ("knap", 30, 5),
        ("knap", 28, 4),
    )
    smoke_member = 4
    node_limit = 150
    mode = "heuristic_first"
    cap_is_answer = True
    params = {
        "loop": "closed, 1 client",
        "strategy": "hybrid",
        "mode": "heuristic_first",
        "node_limit": 150,
        "corpus": "knap-strong 40/s3 30/s2 30/s5 28/s4, rand 16x10/s4",
    }


class LpBatch(Workload):
    name = "lp-batch"
    why = (
        "frontier-shaped LP batches through lockstep simplex and batched PDHG "
        "on a fresh V100: lp does >=90% of the work, la/mip/serve/cluster none"
    )
    sizes = (32, 64, 96, 128)
    batch = 8
    params = {
        "loop": "closed, 1 client",
        "sizes_m": "32,64,96,128 (n=m)",
        "batch": 8,
        "engines": "solve_lp_batch_on_device, solve_lp_pdhg_batch_on_device(tol 1e-4)",
        "device": "V100",
    }

    def build(self, seed: int, smoke: bool = False) -> Inputs:
        rng = _rng(self, seed)
        problems: Dict[Hashable, LinearProgram] = {}
        plan = []
        for m in self.sizes[:1] if smoke else self.sizes:
            c_scale = 1.0 + LP_JITTER * rng.uniform(-1.0, 1.0, m)
            keys = []
            for j, lp in enumerate(crossover_instances(m, m, self.batch)):
                # One objective per batch (a frontier shares c and A, which
                # keeps PDHG on its fused shared-matrix path); rhs per member.
                problems[(m, j)] = LinearProgram(
                    c=lp.c * c_scale,
                    a_ub=lp.a_ub,
                    b_ub=_jitter(rng, lp.b_ub, LP_JITTER),
                    lb=lp.lb,
                    ub=lp.ub,
                )
                keys.append((m, j))
            plan.append((m, keys))
        return Inputs(problems=problems, plan=plan)

    def run(self, inputs: Inputs) -> Tuple[List[Answer], float]:
        answers: List[Answer] = []
        makespan = 0.0
        for _m, keys in inputs.plan:
            lps = [inputs.problems[k] for k in keys]
            for engine in ("simplex", "pdhg"):
                device = Device(V100)
                try:
                    if engine == "simplex":
                        res = solve_lp_batch_on_device(lps, device)
                        bounds, rtol = res.objectives, LP_RTOL
                    else:
                        res = solve_lp_pdhg_batch_on_device(
                            lps, device, options=PDHGOptions(tolerance=CROSSOVER_EPS)
                        )
                        bounds, rtol = res.bounds, CROSSOVER_AGREE_RTOL
                except ReproError:
                    answers.extend(Answer(k, "failed") for k in keys)
                    continue
                latency = device.clock.now
                makespan += latency
                for j, key in enumerate(keys):
                    ok = res.statuses[j] is LPStatus.OPTIMAL
                    answers.append(
                        Answer(
                            key,
                            "ok" if ok else "failed",
                            latency=latency,
                            objective=float(res.objectives[j]),
                            bound=float(bounds[j]),
                            x=res.x[j],
                            rtol=rtol,
                            engine=engine,
                        )
                    )
        return answers, makespan


def _jittered_arrivals(rng: np.random.Generator, arrivals: np.ndarray) -> np.ndarray:
    gaps = np.diff(arrivals, prepend=0.0)
    return np.cumsum(_jitter(rng, gaps, GAP_JITTER))


class _ClusterWorkload(Workload):
    loop = "open"
    slo = S2_SLO.p95_target
    #: Invalidate the hottest fingerprint every this many requests (0 = never).
    invalidate_every = 0

    def run(self, inputs: Inputs) -> Tuple[List[Answer], float]:
        cluster = ClusterService(
            groups=2,
            num_workers=2,
            policy=BatchingPolicy(
                max_batch_size=8, max_wait=2e-5, max_queue_depth=4096
            ),
            slo=S2_SLO,
        )
        hot = inputs.extra.get("hot_fingerprint")
        rids: List[Optional[int]] = []
        for i, (at, key, priority) in enumerate(inputs.plan):
            if self.invalidate_every and i and i % self.invalidate_every == 0:
                cluster.cache.invalidate(hot)
            try:
                rids.append(
                    cluster.submit(inputs.problems[key], at=at, priority=priority)
                )
            except ServiceSaturated:
                rids.append(None)
        cluster.drain()
        answers: List[Answer] = []
        for (_at, key, _priority), rid in zip(inputs.plan, rids):
            r = None if rid is None else cluster.result(rid)
            if r is None:
                answers.append(Answer(key, "failed"))
            elif r.outcome is Outcome.SHED:
                answers.append(Answer(key, "shed"))
            elif not r.ok:
                answers.append(Answer(key, "failed", latency=r.latency))
            else:
                answers.append(
                    Answer(
                        key,
                        "ok",
                        latency=r.latency,
                        objective=r.objective,
                        bound=r.objective,
                        x=r.x,
                    )
                )
        return answers, cluster.makespan - inputs.plan[0][0]


class ClusterBurst(_ClusterWorkload):
    name = "cluster-burst"
    why = (
        "Pareto/Zipf bursts over 512 shape-diverse LPs at ~2-shard capacity: "
        "batch-tier queueing and SLO shedding both visible (the serving knee)"
    )
    requests = 4000
    pool = 512
    params = {
        "loop": "open, generated schedule in simulated time (cannot run late)",
        "requests": 4000,
        "pool": "s2_pool(512), knapsack LPs 40-71 items",
        "interarrival": "Pareto alpha 1.5, mean 2e-4 s (~5k rps offered)",
        "popularity": "Zipf s=1.1",
        "priority_mix": "gold 0.2 / silver 0.5 / bronze 0.3",
        "cluster": "groups=2 workers=2 BatchingPolicy(8, 2e-5, 4096) slo=S2_SLO",
        "latency_limit_sim_s": S2_SLO.p95_target,
    }

    def build(self, seed: int, smoke: bool = False) -> Inputs:
        rng = _rng(self, seed)
        n, pool_size = (200, 32) if smoke else (self.requests, self.pool)
        pool = s2_pool(pool_size)
        index = {id(p): i for i, p in enumerate(pool)}
        base = heavy_tailed_stream(
            pool, TrafficSpec(num_requests=n, mean_interarrival=2e-4)
        )
        arrivals = _jittered_arrivals(rng, np.array([at for at, _, _ in base]))
        plan = [
            (float(arrivals[i]), index[id(p)], priority)
            for i, (_, p, priority) in enumerate(base)
        ]
        used = sorted({key for _, key, _ in plan})
        return Inputs(problems={k: pool[k] for k in used}, plan=plan)


class ClusterDup(_ClusterWorkload):
    name = "cluster-dup"
    why = (
        "60% exact repeats, 30% rhs within range, 10% rhs re-scaled over 32 LPs, "
        "periodic invalidation: cache/coalescing/parametric path, ~32 cold solves"
    )
    requests = 2000
    bases = 32
    invalidate_every = 500
    params = {
        "loop": "open, generated schedule in simulated time (cannot run late)",
        "requests": 2000,
        "bases": "32 dense 8x10 LPs, Zipf s=1.1",
        "mix": "60% exact repeat / 30% rhs +-2% / 10% rhs x0.5-1.5",
        "interarrival": "exponential, mean 1e-4 s",
        "invalidate": "hottest fingerprint every 500 requests",
        "cluster": "groups=2 workers=2 BatchingPolicy(8, 2e-5, 4096) slo=S2_SLO",
        "latency_limit_sim_s": S2_SLO.p95_target,
    }

    def build(self, seed: int, smoke: bool = False) -> Inputs:
        n = 150 if smoke else self.requests
        base_rng = np.random.default_rng(20210809)  # the pinned base stream
        bases = []
        for _ in range(self.bases):
            a = 0.1 + base_rng.random((8, 10))
            b = a.sum(axis=1) * (0.3 + 0.2 * base_rng.random(8))
            bases.append(LinearProgram(c=1.0 + base_rng.random(10), a_ub=a, b_ub=b))
        weights = 1.0 / np.arange(1, self.bases + 1) ** 1.1
        picks = base_rng.choice(self.bases, size=n, p=weights / weights.sum())
        kinds = base_rng.choice(3, size=n, p=[0.6, 0.3, 0.1])
        base_arrivals = np.cumsum(base_rng.exponential(1e-4, size=n))
        priorities = base_rng.choice(["gold", "silver", "bronze"], size=n, p=[0.2, 0.5, 0.3])
        problems: Dict[Hashable, LinearProgram] = {}
        keys: List[Hashable] = []
        for i in range(n):
            lp = bases[picks[i]]
            if kinds[i] == 0:
                key: Hashable = ("base", int(picks[i]))
                problems.setdefault(key, lp)
            else:
                key = i
                b_ub = (
                    _jitter(base_rng, lp.b_ub, 0.02)
                    if kinds[i] == 1
                    else lp.b_ub * base_rng.uniform(0.5, 1.5)
                )
                problems[key] = LinearProgram(c=lp.c, a_ub=lp.a_ub, b_ub=b_ub)
            keys.append(key)
        arrivals = _jittered_arrivals(_rng(self, seed), base_arrivals)
        plan = [(float(arrivals[i]), keys[i], str(priorities[i])) for i in range(n)]
        return Inputs(
            problems=problems,
            plan=plan,
            extra={"hot_fingerprint": fingerprint(bases[0])},
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (TreeExact(), TreePortfolio(), LpBatch(), ClusterBurst(), ClusterDup())
}
WORKLOAD_NAMES = list(WORKLOADS)
