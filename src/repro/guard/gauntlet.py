"""The guard gauntlet: run the pathological corpus through the stack.

For every :class:`~repro.problems.pathological.PathologicalCase` this
runs the full front door — sanitize (REPAIR policy), then solve through
:func:`repro.api.solve` under a deadline budget — and checks the
outcome against the case's declared expectation.  The contract being
enforced is the guard layer's core promise:

    **no uncaught exceptions, no hangs** — every pathological input
    becomes a structured verdict (rejected / repaired / infeasible /
    solved / anytime-with-bound).

``repro guard`` is the CLI wrapper; tests assert ``report.ok``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import obs
from repro.errors import GuardError, ReproError, SanitizeError
from repro.guard.budget import DeadlineBudget, GuardContext, guarding
from repro.guard.sanitize import SanitizePolicy, sanitize_problem
from repro.mip.result import MIPStatus
from repro.problems.pathological import PathologicalCase, pathological_corpus


@dataclass
class GauntletRun:
    """One corpus case's trip through sanitize → solve."""

    case: str
    expect: str
    ok: bool
    #: What actually happened: "rejected" / "repaired" / "clean" /
    #: "infeasible" / a solver status value / "exception".
    outcome: str = ""
    detail: str = ""
    #: Codes the sanitizer repaired (empty when none).
    repaired: List[str] = field(default_factory=list)
    #: Guard event counters from the solve (deadline/watchdog/escalate).
    counters: Dict[str, int] = field(default_factory=dict)
    host_seconds: float = 0.0

    def to_dict(self) -> Dict:
        return {
            "case": self.case,
            "expect": self.expect,
            "ok": self.ok,
            "outcome": self.outcome,
            "detail": self.detail,
            "repaired": list(self.repaired),
            "counters": dict(self.counters),
            "host_seconds": self.host_seconds,
        }


@dataclass
class GauntletReport:
    """Outcome of one full corpus run."""

    runs: List[GauntletRun] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(run.ok for run in self.runs)

    def to_dict(self) -> Dict:
        return {"ok": self.ok, "runs": [r.to_dict() for r in self.runs]}


def _run_case(case: PathologicalCase, deadline: float) -> GauntletRun:
    from repro.api import SolveOptions, solve

    run = GauntletRun(case=case.name, expect=case.expect, ok=False)
    started = time.perf_counter()
    try:
        problem = case.build()
        try:
            san = sanitize_problem(problem, policy=SanitizePolicy.REPAIR)
        except SanitizeError as exc:
            run.outcome = "rejected"
            run.detail = str(exc).splitlines()[0]
            run.ok = case.expect == "reject"
            return run
        run.repaired = list(san.repaired)
        if san.verdict == "infeasible":
            run.outcome = "infeasible"
            run.ok = case.expect == "infeasible"
            return run

        budget = case.deadline if case.deadline is not None else deadline
        ctx = GuardContext(
            budgets=[DeadlineBudget(budget, label="gauntlet")]
        )
        with guarding(ctx):
            report = solve(san.problem, SolveOptions())
        run.outcome = report.status
        run.counters = dict(ctx.counters)

        if case.expect == "repair":
            run.ok = bool(san.repaired) and report.status == "optimal"
            if not san.repaired:
                run.detail = "sanitizer repaired nothing"
        elif case.expect == "solve":
            run.ok = report.status == "optimal"
        elif case.expect == "infeasible":
            run.ok = report.status == "infeasible"
        elif case.expect == "anytime":
            if report.status in {s.value for s in MIPStatus if s.anytime}:
                import math

                run.ok = math.isfinite(report.best_bound)
                if not run.ok:
                    run.detail = "anytime stop without a finite dual bound"
            elif report.status == "optimal":
                # Finished inside the budget — still a structured answer.
                run.ok = True
                run.detail = "finished within budget"
            else:
                run.detail = f"unexpected status {report.status!r}"
        else:
            run.detail = f"case declares unknown expectation {case.expect!r}"
    except GuardError as exc:
        run.outcome = "guard-error"
        run.detail = str(exc).splitlines()[0]
    except ReproError as exc:
        # Structured, typed — but the corpus expected better handling.
        run.outcome = "repro-error"
        run.detail = f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # noqa: BLE001 — the whole point of the gauntlet
        run.outcome = "exception"
        run.detail = f"UNCAUGHT {type(exc).__name__}: {exc}"
    finally:
        run.host_seconds = time.perf_counter() - started
    return run


def run_gauntlet(
    cases: Optional[List[PathologicalCase]] = None,
    deadline: float = 5.0,
    log_fn=None,
) -> GauntletReport:
    """Run the corpus (or ``cases``) and report per-case verdicts.

    ``deadline`` is the per-case host-seconds budget used when a case
    doesn't pin its own; it is the anti-hang backstop, so every solve
    in the gauntlet runs under *some* budget.
    """
    report = GauntletReport()
    for case in cases if cases is not None else pathological_corpus():
        run = _run_case(case, deadline)
        report.runs.append(run)
        obs.event(
            "guard.gauntlet", category="guard",
            case=run.case, ok=run.ok, outcome=run.outcome,
        )
        if log_fn is not None:
            mark = "ok " if run.ok else "FAIL"
            extra = f"  {run.detail}" if run.detail else ""
            log_fn(
                f"[{mark}] {run.case:<22} expect={run.expect:<10} "
                f"got={run.outcome}{extra}"
            )
    return report
