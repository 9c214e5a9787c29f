"""Property-preserving instance transforms with known optimum effects.

Each transform maps a :class:`MIPProblem` to a new problem whose optimum
is an *exactly known* affine function of the original optimum
(``expected = scale · z* + offset``):

- variable / row permutation — unchanged;
- positive row scaling by powers of two — unchanged (power-of-two
  factors are exact in binary floating point, so the transformed
  instance is bit-for-bit equivalent row-wise);
- positive objective scaling by a power of two — scaled;
- objective negation with sense flip, realized by reflecting every
  variable inside its (finite) bound box: ``x → lb + ub − x`` negates
  every coefficient of ``c`` and ``A`` while keeping the same box, and
  shifts the optimum by exactly ``−cᵀ(lb + ub)``;
- fixing one variable at its optimal value — unchanged (the optimal
  point stays feasible, and a restriction cannot improve a maximum).

A solver that disagrees with the expected optimum on any variant has a
bug on the original instance, the variant, or both.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional

import numpy as np

from repro.errors import MetamorphicViolation
from repro.mip.problem import MIPProblem
from repro.mip.result import MIPResult, MIPStatus

#: Exact positive scale factors (all powers of two).
_POW2_SCALES = (0.25, 0.5, 2.0, 4.0, 8.0)

#: Relative tolerance when comparing a variant's optimum to expectation.
METAMORPHIC_RTOL = 1e-6


@dataclass
class MetamorphicVariant:
    """A transformed instance and its expected-optimum relation."""

    name: str
    problem: MIPProblem
    #: Expected optimum of the variant = ``scale * z_original + offset``.
    scale: float = 1.0
    offset: float = 0.0

    def expected(self, base_objective: float) -> float:
        """Expected optimum of the variant given the original optimum."""
        return self.scale * base_objective + self.offset


def permute_variables(problem: MIPProblem, rng: np.random.Generator) -> MetamorphicVariant:
    """Relabel the variables; the optimum is unchanged."""
    perm = rng.permutation(problem.n)
    data = {key: getattr(problem, key)[perm] for key in ("c", "integer", "lb", "ub")}
    for key in ("a_ub", "a_eq"):
        if getattr(problem, key) is not None:
            data[key] = getattr(problem, key)[:, perm]
    return MetamorphicVariant(
        name="permute_variables",
        problem=replace(problem, name=f"{problem.name}+pvar", **data),
    )


def permute_rows(problem: MIPProblem, rng: np.random.Generator) -> MetamorphicVariant:
    """Reorder the constraint rows; the optimum is unchanged."""
    data = {}
    for a_key, b_key in (("a_ub", "b_ub"), ("a_eq", "b_eq")):
        a = getattr(problem, a_key)
        if a is not None and a.shape[0] > 1:
            perm = rng.permutation(a.shape[0])
            data[a_key] = a[perm]
            data[b_key] = getattr(problem, b_key)[perm]
    return MetamorphicVariant(
        name="permute_rows",
        problem=replace(problem, name=f"{problem.name}+prow", **data),
    )


def scale_rows(problem: MIPProblem, rng: np.random.Generator) -> MetamorphicVariant:
    """Scale each row by a positive power of two; the optimum is unchanged."""
    data = {}
    for a_key, b_key in (("a_ub", "b_ub"), ("a_eq", "b_eq")):
        a = getattr(problem, a_key)
        if a is not None:
            scales = rng.choice(_POW2_SCALES, size=a.shape[0])
            data[a_key] = a * scales[:, None]
            data[b_key] = getattr(problem, b_key) * scales
    return MetamorphicVariant(
        name="scale_rows",
        problem=replace(problem, name=f"{problem.name}+srow", **data),
    )


def scale_objective(problem: MIPProblem, rng: np.random.Generator) -> MetamorphicVariant:
    """Scale ``c`` by a positive power of two; the optimum scales with it."""
    alpha = float(rng.choice(_POW2_SCALES))
    return MetamorphicVariant(
        name="scale_objective",
        problem=replace(problem, name=f"{problem.name}+sobj", c=problem.c * alpha),
        scale=alpha,
    )


def reflect_box(problem: MIPProblem, rng: np.random.Generator) -> Optional[MetamorphicVariant]:
    """Objective negation with sense flip via box reflection.

    Substituting ``x = lb + ub − x'`` (every variable reflected inside
    its box) negates every coefficient of ``c`` and ``A`` — the negated
    objective is then *maximized* again, i.e. the sense flip — while the
    bound box and integrality pattern are preserved.  The optimum moves
    by exactly ``−cᵀ(lb + ub)``.  Requires all bounds finite.
    """
    if not (np.all(np.isfinite(problem.lb)) and np.all(np.isfinite(problem.ub))):
        return None
    mid = problem.lb + problem.ub
    data = {"c": -problem.c}
    for a_key, b_key in (("a_ub", "b_ub"), ("a_eq", "b_eq")):
        a = getattr(problem, a_key)
        if a is not None:
            data[b_key] = getattr(problem, b_key) - a @ mid
            data[a_key] = -a
    return MetamorphicVariant(
        name="reflect_box",
        problem=replace(problem, name=f"{problem.name}+refl", **data),
        offset=-float(problem.c @ mid),
    )


def fix_variable(
    problem: MIPProblem, rng: np.random.Generator, x_opt: np.ndarray
) -> Optional[MetamorphicVariant]:
    """Fix one variable at its optimal value; the optimum is unchanged."""
    if x_opt is None:
        return None
    candidates = np.nonzero(problem.integer)[0]
    if candidates.size == 0:
        candidates = np.arange(problem.n)
    j = int(rng.choice(candidates))
    value = float(x_opt[j])
    if problem.integer[j]:
        value = float(np.round(value))
    value = float(np.clip(value, problem.lb[j], problem.ub[j]))
    lb, ub = problem.lb.copy(), problem.ub.copy()
    lb[j] = ub[j] = value
    return MetamorphicVariant(
        name=f"fix_variable[{j}]",
        problem=replace(problem, name=f"{problem.name}+fix{j}", lb=lb, ub=ub),
    )


def metamorphic_variants(
    problem: MIPProblem,
    rng: np.random.Generator,
    x_opt: Optional[np.ndarray] = None,
    max_variants: Optional[int] = None,
) -> List[MetamorphicVariant]:
    """Build the applicable variants of one instance (deterministic in ``rng``)."""
    variants: List[MetamorphicVariant] = [
        permute_variables(problem, rng),
        permute_rows(problem, rng),
        scale_rows(problem, rng),
        scale_objective(problem, rng),
    ]
    reflected = reflect_box(problem, rng)
    if reflected is not None:
        variants.append(reflected)
    if x_opt is not None:
        fixed = fix_variable(problem, rng, x_opt)
        if fixed is not None:
            variants.append(fixed)
    if max_variants is not None and len(variants) > max_variants:
        idx = rng.choice(len(variants), size=max_variants, replace=False)
        variants = [variants[i] for i in sorted(idx)]
    return variants


@dataclass
class MetamorphicOutcome:
    """One variant's solve compared against its expectation."""

    name: str
    ok: bool
    expected: float
    actual: float
    status: str
    detail: str = ""


@dataclass
class MetamorphicReport:
    """All variant outcomes for one base instance."""

    problem_name: str
    base_objective: float
    outcomes: List[MetamorphicOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every variant matched its expected optimum."""
        return all(o.ok for o in self.outcomes)

    @property
    def failures(self) -> List[MetamorphicOutcome]:
        """The variants that missed their expectation."""
        return [o for o in self.outcomes if not o.ok]

    def raise_for_failures(self) -> None:
        """Raise :class:`MetamorphicViolation` for the first failure."""
        for outcome in self.failures:
            raise MetamorphicViolation(outcome.name, outcome.expected, outcome.actual)


def check_metamorphic(
    problem: MIPProblem,
    base_result: MIPResult,
    solve_fn: Callable[[MIPProblem], MIPResult],
    rng: np.random.Generator,
    max_variants: Optional[int] = None,
) -> MetamorphicReport:
    """Solve every applicable variant and compare against expectation.

    Requires an ``OPTIMAL`` base result; each variant must come back
    ``OPTIMAL`` with an objective within ``METAMORPHIC_RTOL`` (relative,
    magnitude-scaled) of ``variant.expected(base)``.
    """
    report = MetamorphicReport(
        problem_name=problem.name, base_objective=base_result.objective
    )
    if base_result.status is not MIPStatus.OPTIMAL or base_result.x is None:
        return report
    variants = metamorphic_variants(
        problem, rng, x_opt=base_result.x, max_variants=max_variants
    )
    for variant in variants:
        expected = variant.expected(base_result.objective)
        result = solve_fn(variant.problem)
        if result.status is not MIPStatus.OPTIMAL:
            report.outcomes.append(
                MetamorphicOutcome(
                    name=variant.name,
                    ok=False,
                    expected=expected,
                    actual=float("nan"),
                    status=result.status.value,
                    detail="variant did not solve to optimality",
                )
            )
            continue
        allowed = METAMORPHIC_RTOL * (1.0 + abs(expected))
        delta = abs(result.objective - expected)
        report.outcomes.append(
            MetamorphicOutcome(
                name=variant.name,
                ok=bool(delta <= allowed),
                expected=expected,
                actual=result.objective,
                status=result.status.value,
                detail=f"delta {delta:.3e} (allowed {allowed:.3e})",
            )
        )
    return report
