"""Metamorphic + differential + certificate fuzzing with shrinking.

One fuzz iteration draws a small random MIP (every instance is feasible
by construction, so an INFEASIBLE answer is itself a bug), solves it
with the baseline branch-and-bound, and then pushes the result through
the three independent oracles:

1. the exact :mod:`certificates <repro.check.certificates>` audit of the
   returned incumbent and dual bound;
2. :mod:`differential <repro.check.differential>` runs across the other
   solver configurations (plus the LP relaxation through the LP stack);
3. :mod:`metamorphic <repro.check.metamorphic>` variants with exactly
   known optimum relations.

Any failure is greedily :mod:`shrunk <repro.check.shrinker>` under "the
same check still fails" and written as a replayable JSON repro file;
``repro replay <file>`` (or :func:`replay_repro`) re-runs exactly the
failing check on the stored instance.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.check.certificates import certify_mip_result
from repro.check.differential import (
    differential_lp,
    differential_mip,
    differential_warm_mip,
)
from repro.check.metamorphic import check_metamorphic
from repro.check.serialize import load_repro, save_repro
from repro.check.shrinker import shrink
from repro.errors import ReproError
from repro.mip.problem import MIPProblem
from repro.mip.result import MIPResult, MIPStatus
from repro.mip.solver import BranchAndBoundSolver, SolverOptions
from repro.problems.random_mip import generate_random_mip

SolveFn = Callable[[MIPProblem], MIPResult]

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
    #: Warm-vs-cold branch and bound (plus warm determinism) oracle.
    warm_differential: bool = True
    metamorphic: bool = True
    #: Instance-size caps (kept small: the oracles multiply solve count).
    max_vars: int = 9
    max_rows: int = 7


@dataclass
class FuzzFailure:
    """One confirmed check failure, after shrinking."""

    kind: str  # "certificate" | "differential" | "lp_differential" | "warm" | "metamorphic"
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
    certificate_checks: int = 0
    differential_checks: int = 0
    lp_differential_checks: int = 0
    warm_checks: int = 0
    metamorphic_checks: int = 0
    solver_errors: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no check failed and no solver crashed."""
        return not self.failures and not self.solver_errors

    @property
    def total_checks(self) -> int:
        """All oracle invocations across the campaign."""
        return (
            self.certificate_checks
            + self.differential_checks
            + self.lp_differential_checks
            + self.warm_checks
            + self.metamorphic_checks
        )


def default_solve_fn() -> SolveFn:
    """The baseline solver under test (plain branch-and-bound)."""

    def solve(problem: MIPProblem) -> MIPResult:
        return BranchAndBoundSolver(
            problem, SolverOptions(node_limit=NODE_LIMIT)
        ).solve()

    return solve


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


def _shrink_and_save(
    report: FuzzReport,
    options: FuzzOptions,
    kind: str,
    problem: MIPProblem,
    iteration: int,
    detail: str,
    predicate: Callable[[MIPProblem], bool],
) -> None:
    """Minimize a failing instance and write its repro file."""
    shrunk = problem
    original_size = final_size = ()
    if options.shrink:
        result = shrink(problem, predicate, max_attempts=SHRINK_ATTEMPTS)
        shrunk = result.problem
        original_size, final_size = result.original_size, result.final_size
    path = os.path.join(
        options.out_dir, f"repro-{kind}-seed{options.seed}-i{iteration}.json"
    )
    save_repro(
        path,
        kind,
        shrunk,
        seed=options.seed,
        detail=detail,
        original_shape={
            "original_size": list(original_size),
            "shrunk_size": list(final_size),
            "iteration": iteration,
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


def _certificate_fails(solve_fn: SolveFn, candidate: MIPProblem) -> bool:
    result = solve_fn(candidate)
    if result.status is not MIPStatus.OPTIMAL:
        # Shrinking may legitimately make the instance infeasible; only a
        # failing *certificate* keeps the candidate.
        return False
    return not certify_mip_result(candidate, result).ok


def run_fuzz(
    options: Optional[FuzzOptions] = None,
    solve_fn: Optional[SolveFn] = None,
    log_fn: Optional[Callable[[str], None]] = None,
) -> FuzzReport:
    """Run one fuzz campaign; deterministic in ``options.seed``.

    ``solve_fn`` is the solver under test for the certificate and
    metamorphic oracles (injectable so tests can corrupt results on
    purpose); the differential oracle always runs the stock solver
    configurations against each other.
    """
    options = options or FuzzOptions()
    solve = solve_fn or default_solve_fn()
    rng = np.random.default_rng(options.seed)
    report = FuzzReport(budget=options.budget, seed=options.seed)

    for iteration in range(options.budget):
        problem = _draw_instance(rng, options)
        report.instances += 1
        meta_seed = int(rng.integers(0, 2**31 - 1))

        try:
            result = solve(problem)
        except ReproError as exc:
            report.solver_errors += 1
            _shrink_and_save(
                report,
                options,
                "solver-error",
                problem,
                iteration,
                detail=f"{type(exc).__name__}: {exc}",
                predicate=lambda p: _raises(solve, p),
            )
            continue

        # Every generated instance has a planted feasible point: the
        # baseline must find *an* optimum (node limits are generous).
        if result.status is not MIPStatus.OPTIMAL:
            report.solver_errors += 1
            _shrink_and_save(
                report,
                options,
                "certificate",
                problem,
                iteration,
                detail=(
                    f"feasible-by-construction instance returned "
                    f"{result.status.value}"
                ),
                predicate=lambda p: solve(p).status is not MIPStatus.OPTIMAL,
            )
            continue

        report.certificate_checks += 1
        certificate = certify_mip_result(problem, result)
        if not certificate.ok:
            worst = certificate.failures[0]
            _shrink_and_save(
                report,
                options,
                "certificate",
                problem,
                iteration,
                detail=(
                    f"{worst.name}: violation {worst.violation:.6g} "
                    f"> tol {worst.tolerance:.6g} ({worst.detail})"
                ),
                predicate=lambda p: _certificate_fails(solve, p),
            )
            continue

        if options.differential:
            report.differential_checks += 1
            diff = differential_mip(problem, node_limit=NODE_LIMIT)
            if not diff.ok:
                d = diff.disagreements[0]
                _shrink_and_save(
                    report,
                    options,
                    "differential",
                    problem,
                    iteration,
                    detail=(
                        f"{d.left} vs {d.right} on {d.kind}: "
                        f"{d.left_value} != {d.right_value}"
                    ),
                    predicate=lambda p: not differential_mip(p, node_limit=NODE_LIMIT).ok,
                )
                continue

        if options.lp_differential:
            report.lp_differential_checks += 1
            lp = problem.relaxation()
            lp.name = problem.name
            lp_diff = differential_lp(lp)
            if not lp_diff.ok:
                d = lp_diff.disagreements[0]
                _shrink_and_save(
                    report,
                    options,
                    "lp_differential",
                    problem,
                    iteration,
                    detail=(
                        f"{d.left} vs {d.right} on {d.kind}: "
                        f"{d.left_value} != {d.right_value}"
                    ),
                    predicate=lambda p: not differential_lp(p.relaxation()).ok,
                )
                continue

        if options.warm_differential:
            report.warm_checks += 1
            warm_diff = differential_warm_mip(problem, node_limit=NODE_LIMIT)
            if not warm_diff.ok:
                d = warm_diff.disagreements[0]
                _shrink_and_save(
                    report,
                    options,
                    "warm",
                    problem,
                    iteration,
                    detail=(
                        f"{d.left} vs {d.right} on {d.kind}: "
                        f"{d.left_value} != {d.right_value}"
                    ),
                    predicate=lambda p: not differential_warm_mip(
                        p, node_limit=NODE_LIMIT
                    ).ok,
                )
                continue

        if options.metamorphic:
            meta = check_metamorphic(
                problem,
                result,
                solve,
                rng=np.random.default_rng(meta_seed),
                max_variants=METAMORPHIC_VARIANTS,
            )
            report.metamorphic_checks += len(meta.outcomes)
            if not meta.ok:
                failure = meta.failures[0]
                _shrink_and_save(
                    report,
                    options,
                    "metamorphic",
                    problem,
                    iteration,
                    detail=(
                        f"{failure.name}: expected {failure.expected:.9g}, "
                        f"got {failure.actual:.9g} ({failure.detail})"
                    ),
                    predicate=lambda p: _metamorphic_fails(
                        solve, p, meta_seed, METAMORPHIC_VARIANTS
                    ),
                )
                continue

        if log_fn and (iteration + 1) % 25 == 0:
            log_fn(
                f"fuzz: {iteration + 1}/{options.budget} instances, "
                f"{report.total_checks} checks, {len(report.failures)} failures"
            )

    return report


def _raises(solve: SolveFn, problem: MIPProblem) -> bool:
    try:
        solve(problem)
    except ReproError:
        return True
    return False


def _metamorphic_fails(
    solve: SolveFn,
    problem: MIPProblem,
    meta_seed: int,
    max_variants: Optional[int],
) -> bool:
    result = solve(problem)
    if result.status is not MIPStatus.OPTIMAL:
        return False
    meta = check_metamorphic(
        problem,
        result,
        solve,
        rng=np.random.default_rng(meta_seed),
        max_variants=max_variants,
    )
    return not meta.ok


def replay_repro(path: str, solve_fn: Optional[SolveFn] = None) -> FuzzReport:
    """Re-run the failing check stored in a repro file.

    Returns a one-instance :class:`FuzzReport`; ``report.ok`` means the
    failure no longer reproduces (fixed), a recorded failure means the
    stored instance still trips the same oracle.
    """
    doc = load_repro(path)
    problem: MIPProblem = doc["problem"]
    kind = doc["kind"]
    solve = solve_fn or default_solve_fn()
    report = FuzzReport(budget=1, seed=int(doc.get("seed", 0)))
    report.instances = 1

    def record(detail: str) -> None:
        report.failures.append(
            FuzzFailure(
                kind=kind,
                instance=problem.name,
                iteration=0,
                detail=detail,
                repro_path=path,
            )
        )

    if kind == "solver-error":
        report.certificate_checks += 1
        if _raises(solve, problem):
            record("solver still raises on the stored instance")
        return report

    if kind == "certificate":
        report.certificate_checks += 1
        try:
            result = solve(problem)
        except ReproError as exc:
            record(f"solver raises: {type(exc).__name__}: {exc}")
            return report
        if result.status is not MIPStatus.OPTIMAL:
            record(f"solver returned {result.status.value}")
            return report
        certificate = certify_mip_result(problem, result)
        if not certificate.ok:
            worst = certificate.failures[0]
            record(
                f"{worst.name}: violation {worst.violation:.6g} "
                f"> tol {worst.tolerance:.6g}"
            )
        return report

    if kind == "differential":
        report.differential_checks += 1
        diff = differential_mip(problem)
        if not diff.ok:
            d = diff.disagreements[0]
            record(f"{d.left} vs {d.right} on {d.kind}")
        return report

    if kind == "lp_differential":
        report.lp_differential_checks += 1
        diff = differential_lp(problem.relaxation())
        if not diff.ok:
            d = diff.disagreements[0]
            record(f"{d.left} vs {d.right} on {d.kind}")
        return report

    if kind == "warm":
        report.warm_checks += 1
        diff = differential_warm_mip(problem)
        if not diff.ok:
            d = diff.disagreements[0]
            record(f"{d.left} vs {d.right} on {d.kind}")
        return report

    if kind == "metamorphic":
        report.metamorphic_checks += 1
        if _metamorphic_fails(solve, problem, int(doc.get("seed", 0)), None):
            record("a metamorphic variant still misses its expected optimum")
        return report

    raise ReproError(f"unknown repro kind {kind!r} in {path}")
