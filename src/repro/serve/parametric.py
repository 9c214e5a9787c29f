"""Parametric re-solve: answering near-duplicate LP requests warm.

The exact-fingerprint :mod:`repro.serve.cache` only dedups *identical*
requests.  Real request streams also repeat themselves approximately —
the same model resubmitted with a perturbed right-hand side, objective,
or variable bounds (a re-priced portfolio, an updated demand forecast).
Those share the constraint-matrix *structure*, which is exactly the
regime the dual-simplex machinery amortizes:

- **range hit** — the perturbation stays inside the optimal basis's
  :mod:`repro.lp.sensitivity` ranges: the basis is still optimal and
  the answer is a couple of ftrans, zero pivots;
- **warm hit** — out of range: a warm-started dual-simplex re-solve
  from the stored basis + resident factorization repairs optimality in
  a few pivots instead of a cold solve;
- **miss** — the state cannot answer (infeasible warm start, audit
  failure): the request falls through to the normal batch/dispatch
  path, and its cold result re-seeds the cache.

Every parametric answer is audited before it is served: a float KKT
check against the actual perturbed problem, then the *exact*
dyadic-integer certificate (:func:`repro.check.certify_lp_result` —
floats are dyadic rationals and the audit never leaves that ring, so
integer arithmetic on shared exponents is the full rational audit) —
speed never silently costs correctness.  The integer form of the
matrices a structure's answers share (``a_ub``, ``a_eq``, the
standard-form ``A``) lives on its :class:`ParametricEntry`, so it is
built once per structure, evicted and invalidated with the entry, and
re-verified by value by the certifier on every use.

The structural key is :func:`structure_fingerprint`: the constraint
coefficients plus the bound *finiteness pattern*.  Two problems with
the same key convert to standard forms with the identical matrix ``A``
(values of ``b``/``c``/bounds only move the rhs, objective, and
offset), which is what makes basis/factorization reuse sound.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.config import DEFAULT_TOLERANCES
from repro.errors import LPError
from repro.la.updates import ExplicitInverse
from repro.lp.problem import LinearProgram, StandardFormLP
from repro.lp.result import LPResult, LPStatus
from repro.lp.sensitivity import SensitivityReport, analyze
from repro.lp.warm import WarmStartState, audit_warm_lp, warm_resolve

#: Simulated cost of the structural-fingerprint map probe.
STRUCTURE_LOOKUP_SECONDS = 1e-6
#: Simulated cost of the sensitivity range comparison (vector compares).
RANGE_CHECK_SECONDS = 5e-6
#: Simulated cost per dual-simplex pivot of a warm re-solve (ftran +
#: btran + pricing on the resident factors).
WARM_PIVOT_SECONDS = 2e-6
#: Simulated cost of refactorizing when the resident eta chain was
#: unusable (or absent) for the warm re-solve.
REFACTOR_SECONDS = 2e-5


def structure_fingerprint(problem: LinearProgram) -> str:
    """Hash of the parts that fix the standard-form matrix ``A``.

    Constraint coefficients exactly; bounds only by their finiteness
    pattern (a finite lower bound shifts ``b``, a finite upper bound
    adds a row whose *coefficients* don't depend on its value).  ``c``,
    ``b_ub``/``b_eq``, and bound values are deliberately excluded —
    they are the parametric degrees of freedom.
    """
    digest = hashlib.sha256()
    digest.update(b"lp-structure")
    for tag, arr in (("a_ub", problem.a_ub), ("a_eq", problem.a_eq)):
        if arr is None:
            digest.update(f"{tag}:none;".encode())
        else:
            a = np.ascontiguousarray(arr)
            digest.update(f"{tag}:{a.dtype.str}:{a.shape};".encode())
            digest.update(a.tobytes())
    for tag, arr in (("lb", problem.lb), ("ub", problem.ub)):
        pattern = np.isfinite(np.asarray(arr, dtype=np.float64))
        digest.update(f"{tag}:{pattern.shape};".encode())
        digest.update(np.packbits(pattern).tobytes())
    return digest.hexdigest()


@dataclass
class ParametricEntry:
    """Stored re-solve state for one constraint-matrix structure."""

    sf: StandardFormLP
    result: LPResult
    state: WarmStartState
    #: Simulated time the producing solve completed.
    ready_time: float
    #: Lazily computed sensitivity ranges at ``result``'s basis.
    report: Optional[SensitivityReport] = None
    #: Integer form of this structure's matrices, filled and verified by
    #: value by :func:`repro.check.certify_lp_result` (opaque here).
    exact_form: Dict[str, tuple] = field(default_factory=dict)


@dataclass
class ParametricAnswer:
    """One parametric answer, ready to serve."""

    #: "range" (basis provably still optimal) or "resolve" (warm pivots).
    mode: str
    result: LPResult
    #: Primal solution in the original variable space.
    x: np.ndarray
    #: Simulated seconds the answer cost (lookup + check + pivots).
    sim_seconds: float
    pivots: int = 0
    #: ``ready_time`` of the entry that answered (no time travel: the
    #: answer exists only after its producing solve completed).
    ready_time: float = 0.0


class ParametricCache:
    """Bounded LRU ``structure_fingerprint → ParametricEntry``."""

    def __init__(self, capacity: int = 128):
        self.capacity = capacity
        self._entries: "OrderedDict[str, ParametricEntry]" = OrderedDict()
        self.range_hits = 0
        self.warm_hits = 0
        self.misses = 0
        self.audit_failures = 0
        #: (standard form, integer form) of the answer ``try_answer`` is
        #: auditing; ``_certified`` keeps its two-argument signature.
        self._auditing: tuple = (None, None)

    def __len__(self) -> int:
        return len(self._entries)

    # -- seeding ----------------------------------------------------------------

    def seed(
        self, problem: LinearProgram, result: LPResult, ready_time: float
    ) -> bool:
        """Store a completed cold solve's basis as re-solve state.

        Silently refuses anything not warm-startable: non-optimal
        results, missing basis/duals, or a basis that doesn't match the
        problem's own standard form (e.g. a presolved solve).
        """
        if self.capacity == 0:
            return False
        if result.status is not LPStatus.OPTIMAL or result.basis is None:
            return False
        if result.x_standard is None or result.duals is None:
            return False
        sf = problem.to_standard_form()
        basis = np.asarray(result.basis, dtype=np.int64)
        if basis.shape != (sf.m,) or result.x_standard.shape != (sf.n,):
            return False
        if not audit_warm_lp(sf, result):
            return False
        key = structure_fingerprint(problem)
        self._entries[key] = ParametricEntry(
            sf=sf,
            result=result,
            state=WarmStartState(basis=basis.copy(), shape=(sf.m, sf.n)),
            ready_time=ready_time,
        )
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return True

    # -- answering --------------------------------------------------------------

    def lookup(self, problem: LinearProgram) -> Optional[ParametricEntry]:
        """The entry matching ``problem``'s structure, if any (LRU touch)."""
        if self.capacity == 0:
            return None
        key = structure_fingerprint(problem)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def try_answer(self, problem: LinearProgram) -> Optional[ParametricAnswer]:
        """Answer a near-duplicate from stored state, or None to go cold.

        Every returned answer has passed both the float KKT audit and
        the exact dyadic-integer certificate against the *perturbed*
        problem.
        """
        entry = self.lookup(problem)
        if entry is None:
            self.misses += 1
            return None
        sf2 = problem.to_standard_form()
        if (sf2.m, sf2.n) != (entry.sf.m, entry.sf.n):
            self.misses += 1
            return None

        self._auditing = (sf2, entry.exact_form)
        answer = self._range_answer(entry, problem, sf2)
        if answer is None:
            answer = self._resolve_answer(entry, problem, sf2)
        self._auditing = (None, None)
        if answer is None:
            self.misses += 1
        else:
            answer.ready_time = entry.ready_time
        return answer

    def _certified(self, problem: LinearProgram, result: LPResult) -> bool:
        """Float KKT audit + exact integer certificate, both must pass."""
        sf, form = self._auditing
        if sf is None:
            sf = problem.to_standard_form()
        if not audit_warm_lp(sf, result):
            return False
        from repro.check.certificates import certify_lp_result

        return certify_lp_result(problem, result, form=form, standard_form=sf).ok

    def _range_answer(
        self, entry: ParametricEntry, problem: LinearProgram, sf2: StandardFormLP
    ) -> Optional[ParametricAnswer]:
        """Zero-pivot answer when the perturbation is in-range."""
        base = entry.sf
        delta_b = sf2.b - base.b
        delta_c = sf2.c - base.c
        state = entry.state
        basis = state.basis

        if np.any(delta_c != 0.0):
            # Pure objective perturbation on nonbasic columns, small
            # enough that every reduced cost stays ≤ 0: the vertex is
            # still optimal and even the primal point is unchanged.
            if np.any(delta_b != 0.0) or np.any(delta_c[basis] != 0.0):
                return None
            if entry.report is None:
                entry.report = analyze(base, entry.result)
            reduced_new = entry.report.reduced_costs + delta_c
            if np.any(reduced_new > DEFAULT_TOLERANCES.optimality):
                return None
            x_std = entry.result.x_standard
            objective = float(sf2.c @ x_std) + sf2.offset
            result = LPResult(
                status=LPStatus.OPTIMAL,
                objective=objective,
                duals=entry.result.duals,
                iterations=0,
                basis=basis.copy(),
                x_standard=x_std,
            )
        else:
            # rhs/bound perturbation (a zero move — e.g. only the name
            # differs — is trivially in-range and also lands here).
            if entry.report is None:
                entry.report = analyze(base, entry.result)
            for i, (lo, hi) in enumerate(entry.report.rhs_ranges):
                if not (lo - 1e-12 <= delta_b[i] <= hi + 1e-12):
                    return None
            # Basis unchanged: x_B = B⁻¹ b_new via the resident factors.
            inverse = self._factors(entry)
            if inverse is None:
                return None
            x_basic = inverse.ftran(sf2.b)
            if np.any(x_basic < -DEFAULT_TOLERANCES.feasibility * 10):
                return None  # ranging said yes but numerics disagree
            x_std = np.zeros(sf2.n)
            x_std[basis] = np.maximum(x_basic, 0.0)
            objective = float(sf2.c @ x_std) + sf2.offset
            result = LPResult(
                status=LPStatus.OPTIMAL,
                objective=objective,
                duals=entry.result.duals,
                iterations=0,
                basis=basis.copy(),
                x_standard=x_std,
            )
        result.x = sf2.recover_x(result.x_standard)
        if not self._certified(problem, result):
            self.audit_failures += 1
            return None
        self.range_hits += 1
        return ParametricAnswer(
            mode="range",
            result=result,
            x=result.x,
            sim_seconds=STRUCTURE_LOOKUP_SECONDS + RANGE_CHECK_SECONDS,
            pivots=0,
        )

    def _resolve_answer(
        self, entry: ParametricEntry, problem: LinearProgram, sf2: StandardFormLP
    ) -> Optional[ParametricAnswer]:
        """Warm dual-simplex re-solve from the stored basis/factors."""
        # Materialize the factorization once per entry so consecutive
        # perturbations of the same structure pivot on resident factors.
        self._factors(entry)
        outcome = warm_resolve(sf2, entry.state)
        if outcome is None or outcome.audit_failed:
            if outcome is not None and outcome.audit_failed:
                self.audit_failures += 1
            return None
        result = outcome.result
        if result.status is not LPStatus.OPTIMAL:
            return None
        result.x = sf2.recover_x(result.x_standard)
        if not self._certified(problem, result):
            self.audit_failures += 1
            return None
        # Re-seed: the perturbed optimum is the new base for the next
        # near-duplicate (entries track the stream, not the first seed).
        if outcome.state is not None:
            entry.sf = sf2
            entry.result = result
            entry.state = outcome.state
            entry.report = None
        self.warm_hits += 1
        sim = (
            STRUCTURE_LOOKUP_SECONDS
            + RANGE_CHECK_SECONDS
            + result.iterations * WARM_PIVOT_SECONDS
        )
        if not outcome.reused_factors:
            sim += REFACTOR_SECONDS
        return ParametricAnswer(
            mode="resolve",
            result=result,
            x=result.x,
            sim_seconds=sim,
            pivots=result.iterations,
        )

    def _factors(self, entry: ParametricEntry):
        """Entry's resident basis inverse, built lazily on first use."""
        if entry.state.inverse is None:
            try:
                entry.state.inverse = ExplicitInverse(
                    entry.sf.a[:, entry.state.basis]
                )
            except Exception:
                return None
        return entry.state.inverse
