"""Parametric re-solve: answering near-duplicate LP requests warm.

The exact-fingerprint :mod:`repro.serve.cache` only dedups *identical*
requests.  Real request streams also repeat themselves approximately —
the same model resubmitted with a perturbed right-hand side, objective,
or variable bounds (a re-priced portfolio, an updated demand forecast).
Those share the constraint-matrix *structure*, which is exactly the
regime the dual-simplex machinery amortizes.  Every near-duplicate is
answered one way, by :func:`repro.lp.warm.warm_resolve` from the stored
basis and its resident factorization, and labelled by what ran:

- **range hit** — zero pivots: the stored basis is still optimal for
  the perturbed problem (joint moves included, which one-row-at-a-time
  sensitivity ranges cannot bound), so the answer is a couple of ftrans;
- **warm hit** — a few dual pivots repair optimality instead of a cold
  solve;
- **miss** — the state cannot answer (singular or dual-infeasible
  basis, a non-optimal re-solve, audit failure): the request falls
  through to the normal batch/dispatch path, and its cold result
  re-seeds the cache.

Every parametric answer is audited once before it is served: the
door's float KKT check against the actual perturbed problem
(:func:`repro.lp.warm.warm_resolve`'s own audit), then the *exact*
dyadic-integer certificate (:func:`repro.check.certify_lp_result` —
floats are dyadic rationals and the audit never leaves that ring, so
integer arithmetic on shared exponents is the full rational audit) —
speed never silently costs correctness.  The integer form of the
matrices a structure's answers share (``a_ub``, ``a_eq``, the
standard-form ``A``) lives on its :class:`ParametricEntry`, so it is
built once per structure, evicted and invalidated with the entry, and
re-verified by value by the certifier on every use.

The structural key is the request's placement key
(:func:`repro.serve.request.structure_fingerprint`, hashed once per
request): the constraint coefficients plus the bound *finiteness
pattern*.  Two problems with the same key convert to standard forms
with the identical matrix ``A`` (values of ``b``/``c``/bounds only move
the rhs, objective, and offset), which is what makes basis/factorization
reuse sound.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import SingularMatrixError
from repro.la.updates import ExplicitInverse
from repro.lp.result import LPResult, LPStatus
from repro.lp.warm import WarmStartState, audit_warm_lp, warm_resolve
from repro.serve.request import Outcome, SolveRequest, SolveResponse, respond

#: Simulated cost of the structural-fingerprint map probe.
STRUCTURE_LOOKUP_SECONDS = 1e-6
#: Simulated cost of the warm re-solve's entry pass: the ftran of the
#: new rhs and the pricing that finds the basis still optimal (all a
#: zero-pivot range hit pays beyond the lookup).
RANGE_CHECK_SECONDS = 5e-6
#: Simulated cost per dual-simplex pivot of a warm re-solve (ftran +
#: btran + pricing on the resident factors).
WARM_PIVOT_SECONDS = 2e-6
#: Simulated cost of refactorizing when the resident eta chain was
#: unusable (or absent) for the warm re-solve.
REFACTOR_SECONDS = 2e-5


@dataclass
class ParametricEntry:
    """Stored re-solve state for one constraint-matrix structure."""

    #: Basis of the latest answer (its inverse is built on first use).
    state: WarmStartState
    #: Simulated time the producing solve completed.
    ready_time: float
    #: Integer form of this structure's matrices, filled and verified by
    #: value by :func:`repro.check.certify_lp_result` (opaque here).
    exact_form: Dict[str, tuple] = field(default_factory=dict)


class ParametricCache:
    """Bounded LRU ``placement key → ParametricEntry`` (LP requests)."""

    def __init__(self, capacity: int = 128):
        self.capacity = capacity
        self._entries: "OrderedDict[str, ParametricEntry]" = OrderedDict()
        self.range_hits = 0
        self.warm_hits = 0
        self.misses = 0
        self.audit_failures = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- seeding ----------------------------------------------------------------

    def seed(
        self, request: SolveRequest, result: LPResult, ready_time: float
    ) -> bool:
        """Store a completed cold solve's basis as re-solve state.

        Silently refuses anything not warm-startable: non-optimal
        results, missing basis/duals, or a basis that doesn't match the
        problem's own standard form (e.g. a solve of a transformed form).
        """
        if self.capacity == 0:
            return False
        if result.status is not LPStatus.OPTIMAL or result.basis is None:
            return False
        if result.x_standard is None or result.duals is None:
            return False
        sf = request.problem.to_standard_form()
        if result.basis.shape != (sf.m,) or result.x_standard.shape != (sf.n,):
            return False
        if not audit_warm_lp(sf, result):
            return False
        key = request.placement_key
        self._entries[key] = ParametricEntry(
            state=WarmStartState.from_result(sf, result), ready_time=ready_time
        )
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return True

    # -- answering --------------------------------------------------------------

    def lookup(self, request: SolveRequest) -> Optional[ParametricEntry]:
        """The entry matching ``request``'s structure, if any (LRU touch)."""
        if self.capacity == 0:
            return None
        key = request.placement_key
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def try_answer(self, request: SolveRequest) -> Optional[SolveResponse]:
        """Answer a near-duplicate by one warm re-solve, or None to go cold.

        Every answer has passed the float KKT audit and the exact
        certificate against the *perturbed* problem, each exactly once.
        Its ``warm`` is "range" (zero pivots: the stored basis was still
        optimal) or "resolve" (the re-solve pivoted), and it completes
        after the solve that seeded the entry (no time travel) plus what
        the lookup, the entry pass and the pivots cost.
        """
        problem = request.problem
        entry = self.lookup(request)
        sf = problem.to_standard_form() if entry is not None else None
        if entry is None or entry.state.shape != (sf.m, sf.n):
            self.misses += 1
            return None
        state = entry.state
        if state.inverse is None:
            # Built on first use, not at seed: DESIGN.md "One parametric path".
            try:
                state.inverse = ExplicitInverse(sf.a[:, state.basis])
            except SingularMatrixError:
                self.misses += 1
                return None
        outcome = warm_resolve(sf, state)
        if outcome is None or outcome.result.status is not LPStatus.OPTIMAL:
            self.misses += 1
            return None
        result = outcome.result
        result.x = sf.recover_x(result.x_standard)
        from repro.check.certificates import certify_lp_result

        if outcome.audit_failed or not certify_lp_result(
            problem, result, form=entry.exact_form, standard_form=sf
        ).ok:
            self.audit_failures += 1
            self.misses += 1
            return None
        # Re-seed: the perturbed optimum is the new base for the next
        # near-duplicate (entries track the stream, not the first seed).
        entry.state = result.warm
        sim = (
            STRUCTURE_LOOKUP_SECONDS
            + RANGE_CHECK_SECONDS
            + result.iterations * WARM_PIVOT_SECONDS
        )
        if not outcome.reused_factors:
            sim += REFACTOR_SECONDS
        if result.iterations == 0:
            self.range_hits += 1
        else:
            self.warm_hits += 1
        at = request.arrival_time
        return respond(
            request,
            outcome=Outcome.OK,
            solver_status=result.status.value,
            objective=result.objective,
            x=result.x,
            best_bound=result.objective,
            gap=0.0,
            dispatch_time=at,
            start_time=at,
            completion_time=max(at, entry.ready_time) + sim,
            warm="range" if result.iterations == 0 else "resolve",
        )
