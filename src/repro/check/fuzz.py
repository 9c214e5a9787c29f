"""Metamorphic + differential + certificate fuzzing with shrinking.

One fuzz iteration draws a small random MIP (every instance is feasible
by construction, so an INFEASIBLE answer is itself a bug) and an oracle
seed, then runs the instance through :data:`ORACLES`, one entry per
failure kind, in order:

1. ``solver-error`` — the solver under test raises;
2. ``status`` — it returns anything but OPTIMAL;
3. ``certificate`` — the exact :mod:`certificates
   <repro.check.certificates>` audit of its incumbent and dual bound;
4. ``differential`` / ``lp_differential`` — :mod:`differential
   <repro.check.differential>` runs across the other solver
   configurations (and the LP relaxation through the LP stack);
5. ``metamorphic`` — :mod:`metamorphic <repro.check.metamorphic>`
   variants with exactly known optimum relations.

The first oracle that fails names the failure.  The instance is then
greedily :mod:`shrunk <repro.check.shrinker>` under "the same oracle
still fails" and written as a replayable JSON repro file that stores the
oracle's seed; ``repro replay <file>`` (or :func:`replay_repro`) calls
the same oracle with that seed.  The campaign, the shrinker and replay
share one copy of each check, so a saved repro asks exactly the
question that failed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.check.certificates import certify_mip_result
from repro.check.differential import DifferentialReport, differential_lp, differential_mip
from repro.check.metamorphic import check_metamorphic
from repro.check.serialize import load_repro, save_repro
from repro.check.shrinker import shrink
from repro.errors import ReproError
from repro.mip.problem import MIPProblem
from repro.mip.result import MIPResult, MIPStatus
from repro.mip.solver import BranchAndBoundSolver, SolverOptions
from repro.problems.random_mip import generate_random_mip

SolveFn = Callable[[MIPProblem], MIPResult]
#: ``(problem, solve, seed) -> failure detail``, or None when the check holds.
Oracle = Callable[[MIPProblem, SolveFn, int], Optional[str]]

#: Shrink steps tried per failing instance.
SHRINK_ATTEMPTS = 120
#: Metamorphic variants sampled per instance.
METAMORPHIC_VARIANTS = 3
#: Node budget of every branch and bound a campaign runs.
NODE_LIMIT = 20_000


@dataclass
class FuzzOptions:
    """Knobs of one fuzz campaign (the certificate oracle always runs)."""

    budget: int = 100
    seed: int = 0
    #: Directory for shrunk repro files (created on first failure).
    out_dir: str = "fuzz-repros"
    shrink: bool = True
    differential: bool = True
    lp_differential: bool = True
    metamorphic: bool = True
    #: Instance-size caps (kept small: the oracles multiply solve count).
    max_vars: int = 9
    max_rows: int = 7


@dataclass
class FuzzFailure:
    """One confirmed check failure, after shrinking."""

    kind: str  # a key of ORACLES
    instance: str
    iteration: int
    detail: str
    repro_path: str = ""
    original_size: tuple = ()
    shrunk_size: tuple = ()


@dataclass
class FuzzReport:
    """Outcome of one fuzz campaign."""

    budget: int
    seed: int
    instances: int = 0
    #: Oracle invocations per kind, in :data:`ORACLES` order.
    checks: Dict[str, int] = field(default_factory=dict)
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no check failed (a solver error is a failure too)."""
        return not self.failures

    @property
    def total_checks(self) -> int:
        """All oracle invocations across the campaign."""
        return sum(self.checks.values())


def default_solve_fn() -> SolveFn:
    """The baseline solver under test (plain branch-and-bound)."""

    def solve(problem: MIPProblem) -> MIPResult:
        return BranchAndBoundSolver(
            problem, SolverOptions(node_limit=NODE_LIMIT)
        ).solve()

    return solve


# -- the oracles ---------------------------------------------------------------


def _solver_error(problem: MIPProblem, solve: SolveFn, seed: int) -> Optional[str]:
    try:
        solve(problem)
    except ReproError as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def _status(problem: MIPProblem, solve: SolveFn, seed: int) -> Optional[str]:
    # Every generated instance has a planted feasible point: the baseline
    # must find *an* optimum (node limits are generous).
    status = solve(problem).status
    if status is MIPStatus.OPTIMAL:
        return None
    return f"feasible-by-construction instance returned {status.value}"


def _certificate(problem: MIPProblem, solve: SolveFn, seed: int) -> Optional[str]:
    result = solve(problem)
    if result.status is not MIPStatus.OPTIMAL:
        # Not this oracle's question (``status`` asks it): a shrink step
        # may legitimately make the instance infeasible.
        return None
    certificate = certify_mip_result(problem, result)
    if certificate.ok:
        return None
    worst = certificate.failures[0]
    return (
        f"{worst.name}: violation {worst.violation:.6g} "
        f"> tol {worst.tolerance:.6g} ({worst.detail})"
    )


def _first_disagreement(report: DifferentialReport) -> Optional[str]:
    if report.ok:
        return None
    d = report.disagreements[0]
    return f"{d.left} vs {d.right} on {d.kind}: {d.left_value} != {d.right_value}"


def _differential(problem: MIPProblem, solve: SolveFn, seed: int) -> Optional[str]:
    return _first_disagreement(differential_mip(problem, node_limit=NODE_LIMIT))


def _lp_differential(problem: MIPProblem, solve: SolveFn, seed: int) -> Optional[str]:
    lp = problem.relaxation()
    lp.name = problem.name
    return _first_disagreement(differential_lp(lp))


def _metamorphic(problem: MIPProblem, solve: SolveFn, seed: int) -> Optional[str]:
    result = solve(problem)
    if result.status is not MIPStatus.OPTIMAL:
        return None
    meta = check_metamorphic(
        problem,
        result,
        solve,
        rng=np.random.default_rng(seed),
        max_variants=METAMORPHIC_VARIANTS,
    )
    if meta.ok:
        return None
    failure = meta.failures[0]
    return (
        f"{failure.name}: expected {failure.expected:.9g}, "
        f"got {failure.actual:.9g} ({failure.detail})"
    )


#: One check per failure kind, in campaign order: the first that fails
#: names the failure, shrinks it and is what its repro replays.
ORACLES: Dict[str, Oracle] = {
    "solver-error": _solver_error,
    "status": _status,
    "certificate": _certificate,
    "differential": _differential,
    "lp_differential": _lp_differential,
    "metamorphic": _metamorphic,
}


# -- campaign and replay -------------------------------------------------------


def _draw_instance(rng: np.random.Generator, options: FuzzOptions) -> MIPProblem:
    """One random feasible instance; sizes and shapes vary per draw."""
    num_vars = int(rng.integers(2, options.max_vars + 1))
    num_rows = int(rng.integers(1, options.max_rows + 1))
    density = float(rng.uniform(0.3, 1.0))
    integer_fraction = float(rng.uniform(0.3, 1.0))
    bound = float(rng.integers(1, 8))
    seed = int(rng.integers(0, 2**31 - 1))
    return generate_random_mip(
        num_vars,
        num_rows,
        seed=seed,
        density=density,
        integer_fraction=integer_fraction,
        bound=bound,
    )


def _record(
    report: FuzzReport,
    options: FuzzOptions,
    kind: str,
    problem: MIPProblem,
    solve: SolveFn,
    seed: int,
    iteration: int,
    detail: str,
) -> None:
    """Shrink a failing instance under its own oracle and save its repro."""
    shrunk = problem
    original_size = final_size = ()
    if options.shrink:
        oracle = ORACLES[kind]
        result = shrink(
            problem,
            lambda p: oracle(p, solve, seed) is not None,
            max_attempts=SHRINK_ATTEMPTS,
        )
        shrunk = result.problem
        original_size, final_size = result.original_size, result.final_size
    path = os.path.join(
        options.out_dir, f"repro-{kind}-seed{options.seed}-i{iteration}.json"
    )
    save_repro(
        path,
        kind,
        shrunk,
        seed=seed,
        detail=detail,
        provenance={
            "campaign_seed": options.seed,
            "iteration": iteration,
            "original_size": list(original_size),
            "shrunk_size": list(final_size),
        },
    )
    report.failures.append(
        FuzzFailure(
            kind=kind,
            instance=problem.name,
            iteration=iteration,
            detail=detail,
            repro_path=path,
            original_size=original_size,
            shrunk_size=final_size,
        )
    )


def run_fuzz(
    options: Optional[FuzzOptions] = None,
    solve_fn: Optional[SolveFn] = None,
    log_fn: Optional[Callable[[str], None]] = None,
) -> FuzzReport:
    """Run one fuzz campaign; deterministic in ``options.seed``.

    ``solve_fn`` is the solver under test for the solver-error, status,
    certificate and metamorphic oracles (injectable so tests can corrupt
    results on purpose); the differential oracles always run the stock
    solver configurations against each other.
    """
    options = options or FuzzOptions()
    solve = solve_fn or default_solve_fn()
    switchable = {
        "differential": options.differential,
        "lp_differential": options.lp_differential,
        "metamorphic": options.metamorphic,
    }
    kinds = [kind for kind in ORACLES if switchable.get(kind, True)]
    rng = np.random.default_rng(options.seed)
    report = FuzzReport(
        budget=options.budget, seed=options.seed, checks=dict.fromkeys(kinds, 0)
    )

    for iteration in range(options.budget):
        problem = _draw_instance(rng, options)
        report.instances += 1
        seed = int(rng.integers(0, 2**31 - 1))
        for kind in kinds:
            report.checks[kind] += 1
            detail = ORACLES[kind](problem, solve, seed)
            if detail is not None:
                _record(report, options, kind, problem, solve, seed, iteration, detail)
                break

        if log_fn and (iteration + 1) % 25 == 0:
            log_fn(
                f"fuzz: {iteration + 1}/{options.budget} instances, "
                f"{report.total_checks} checks, {len(report.failures)} failures"
            )

    return report


def replay_repro(path: str, solve_fn: Optional[SolveFn] = None) -> FuzzReport:
    """Re-run the failing check stored in a repro file.

    Calls the repro's oracle with the seed it failed under.  Returns a
    one-instance :class:`FuzzReport`; ``report.ok`` means the failure no
    longer reproduces (fixed), a recorded failure means the stored
    instance still trips the same oracle.
    """
    doc = load_repro(path)
    problem: MIPProblem = doc["problem"]
    kind, seed = doc["kind"], doc["seed"]
    oracle = ORACLES.get(kind)
    if oracle is None:
        raise ReproError(f"unknown repro kind {kind!r} in {path}")
    report = FuzzReport(budget=1, seed=seed, instances=1, checks={kind: 1})
    detail = oracle(problem, solve_fn or default_solve_fn(), seed)
    if detail is not None:
        report.failures.append(
            FuzzFailure(
                kind=kind,
                instance=problem.name,
                iteration=doc["provenance"].get("iteration", 0),
                detail=detail,
                repro_path=path,
            )
        )
    return report
