"""The fault injector: deterministic draws, accounting, site helpers.

One :class:`FaultInjector` is installed per chaos run via
:func:`injecting`; the instrumented layers (device, transfer engine,
SimMPI, the B&B driver, the serve scheduler) consult :func:`active` and
call the site helpers below.  Everything is deterministic:

- every site draws from its own ``random.Random(f"{seed}:{site}")``
  stream, so adding draws at one site never perturbs another;
- occurrence counters advance on every consult, fault or not, so a
  scheduled fault pinned to occurrence ``k`` fires at exactly the same
  operation on every replay.

Accounting: every injected fault increments ``fault.injected`` and must
be *resolved* exactly once —

- ``fault.recovered`` — masked by a retry / re-dispatch / resume;
- ``fault.tolerated`` — absorbed by degrading to a fallback strategy;
- ``fault.escaped``  — surfaced to the caller as a failure.

A clean chaos run satisfies ``injected == recovered + tolerated`` with
``escaped == 0`` (:attr:`FaultInjector.clean`).  :class:`FaultError`
subclasses carry ``fault_count`` so the layer that finally handles an
error knows how many unresolved injections it is accounting for.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from repro import obs
from repro.errors import (
    EccError,
    FaultError,
    KernelFaultError,
    TransferFaultError,
)
from repro.faults.plan import (
    SITE_ECC,
    SITE_GROUP,
    SITE_KERNEL,
    SITE_NODE,
    SITE_RANK,
    SITE_TRANSFER,
    SITE_WORKER,
    TRANSFER_KINDS,
    FaultPlan,
)
from repro.metrics import Metrics


class FaultInjector:
    """Executes one :class:`FaultPlan` against a workload."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.metrics = Metrics()
        self._occurrences: Dict[str, int] = {}
        self._rngs: Dict[str, random.Random] = {}
        self._scheduled = {}
        for fault in plan.scheduled:
            qualifier = fault.rank if fault.site == SITE_RANK else None
            self._scheduled[(fault.site, qualifier, fault.at)] = fault
        self._injected = 0
        self._recovered = 0
        self._tolerated = 0
        self._escaped = 0

    # -- deterministic draws -----------------------------------------------------

    def _rng(self, key: str) -> random.Random:
        rng = self._rngs.get(key)
        if rng is None:
            # Version-2 string seeding is stable across processes/runs.
            rng = random.Random(f"{self.plan.seed}:{key}")
            self._rngs[key] = rng
        return rng

    def _budget_left(self) -> bool:
        budget = self.plan.max_faults
        return budget is None or self._injected < budget

    def _default_kind(self, site: str, key: str) -> str:
        if site == SITE_TRANSFER:
            return self._rng(key + ":kind").choice(TRANSFER_KINDS)
        return ""

    def fire(self, site: str, qualifier: Optional[int] = None) -> Optional[str]:
        """Count one occurrence at ``site``; fault kind if one fires.

        Returns None for a clean occurrence.  Scheduled faults fire
        unconditionally; rate-based faults respect the failure budget.
        """
        key = site if qualifier is None else f"{site}[{qualifier}]"
        idx = self._occurrences.get(key, 0)
        self._occurrences[key] = idx + 1

        kind: Optional[str] = None
        scheduled = self._scheduled.get((site, qualifier, idx))
        if scheduled is not None:
            kind = scheduled.kind or self._default_kind(site, key)
        elif self._budget_left():
            rate = self.plan.rates.get(site, 0.0)
            if rate > 0.0 and self._rng(key).random() < rate:
                kind = self._default_kind(site, key)
        if kind is None:
            return None

        self._injected += 1
        self.metrics.inc("fault.injected")
        self.metrics.inc(f"fault.injected.{site}")
        obs.event(
            "fault.injected", category="fault", site=site, kind=kind, occurrence=idx
        )
        return kind

    # -- resolution accounting ---------------------------------------------------

    def resolve_recovered(self, count: int = 1, site: str = "") -> None:
        """Mark ``count`` injected faults as masked by recovery."""
        if count <= 0:
            return
        self._recovered += count
        self.metrics.inc("fault.recovered", count)
        if site:
            self.metrics.inc(f"fault.recovered.{site}", count)

    def resolve_tolerated(self, count: int = 1, site: str = "") -> None:
        """Mark ``count`` injected faults as absorbed by degradation."""
        if count <= 0:
            return
        self._tolerated += count
        self.metrics.inc("fault.tolerated", count)
        if site:
            self.metrics.inc(f"fault.tolerated.{site}", count)

    def resolve_escaped(self, count: int = 1, site: str = "") -> None:
        """Mark ``count`` injected faults as surfaced to the caller."""
        if count <= 0:
            return
        self._escaped += count
        self.metrics.inc("fault.escaped", count)
        if site:
            self.metrics.inc(f"fault.escaped.{site}", count)

    def counts(self) -> Dict[str, int]:
        """The four accounting totals."""
        return {
            "injected": self._injected,
            "recovered": self._recovered,
            "tolerated": self._tolerated,
            "escaped": self._escaped,
        }

    @property
    def balanced(self) -> bool:
        """Every injected fault has been resolved exactly once."""
        return self._injected == self._recovered + self._tolerated + self._escaped

    @property
    def clean(self) -> bool:
        """Balanced with nothing escaped — the acceptance invariant."""
        return self.balanced and self._escaped == 0

    def summary(self) -> Dict:
        """Counts + per-site breakdown for reports."""
        out: Dict = dict(self.counts())
        out["sites"] = {
            name: count
            for name, count in sorted(self.metrics.counters.items())
            if name.startswith("fault.injected.")
        }
        return out

    # -- shared recovery pricing -------------------------------------------------

    def backoff(self, attempt: int) -> float:
        """Jittered exponential backoff delay before retry ``attempt + 1``."""
        delay = self.plan.retry.delay(attempt, self._rng("backoff"))
        self.metrics.observe("fault.backoff_seconds", delay)
        return delay

    # -- site helpers (called by the instrumented layers) ------------------------

    def kernel_attempt(self, cost, spec) -> float:
        """Draw faults for one kernel launch; wasted simulated seconds.

        Failed launches retry in place (up to ``retry.max_attempts``)
        and their partial work plus backoff is returned as overhead the
        device charges on top of the successful launch.  Raises
        :class:`EccError` on an uncorrectable error and
        :class:`KernelFaultError` when retries are exhausted — both
        carrying the unresolved ``fault_count``.
        """
        policy = self.plan.retry
        waste_rng = self._rng(SITE_KERNEL + ":waste")
        wasted = 0.0
        failures = 0
        while True:
            if self.fire(SITE_ECC) is not None:
                raise EccError(cost.name, fault_count=failures + 1)
            if self.fire(SITE_KERNEL) is None:
                if failures:
                    self.resolve_recovered(failures, site=SITE_KERNEL)
                    self.metrics.observe("fault.kernel.wasted_seconds", wasted)
                    self.metrics.observe("fault.retry.attempts", failures)
                return wasted
            failures += 1
            wasted += cost.failed_duration(spec, waste_rng.random())
            if failures >= policy.max_attempts:
                raise KernelFaultError(cost.name, failures, fault_count=failures)
            wasted += self.backoff(failures)

    def transfer_attempt(self, direction: str, seconds: float) -> float:
        """Draw faults for one h2d/d2h crossing; wasted simulated seconds.

        Timeouts waste ``transfer_timeout_factor`` × the nominal cost;
        corruptions waste one full (re-checked) crossing.  Raises
        :class:`TransferFaultError` when retries are exhausted.
        """
        policy = self.plan.retry
        wasted = 0.0
        failures = 0
        while True:
            kind = self.fire(SITE_TRANSFER)
            if kind is None:
                if failures:
                    self.resolve_recovered(failures, site=SITE_TRANSFER)
                    self.metrics.observe("fault.transfer.wasted_seconds", wasted)
                    self.metrics.observe("fault.retry.attempts", failures)
                return wasted
            failures += 1
            if kind == "timeout":
                wasted += seconds * self.plan.transfer_timeout_factor
            else:
                wasted += seconds
            if failures >= policy.max_attempts:
                raise TransferFaultError(
                    direction, kind, failures, fault_count=failures
                )
            wasted += self.backoff(failures)

    def rank_drop(self, rank: int) -> bool:
        """True when ``rank`` drops at this resume (per-rank counters)."""
        return self.fire(SITE_RANK, qualifier=rank) is not None

    def worker_crash(self, batch_size: int, lockstep: bool) -> Optional[int]:
        """Crash point for one dispatched batch, or None.

        Returns the index of the first lost member: members ``[j:]``
        were in flight when the worker died and must be re-dispatched.
        A lockstep batch is one fused kernel sequence, so the whole
        batch is in flight (j = 0).
        """
        if self.fire(SITE_WORKER) is None:
            return None
        if lockstep or batch_size <= 1:
            return 0
        return self._rng(SITE_WORKER + ":index").randrange(batch_size)

    def node_kill(self) -> bool:
        """True when the B&B driver dies after this node pop."""
        return self.fire(SITE_NODE) is not None

    def group_kill(self) -> bool:
        """True when a whole cluster worker group fail-stops now.

        The cluster front door consults this once per admission while
        more than one group is live (the last group is never killable);
        on True it picks the deterministic victim, re-routes the dead
        group's in-flight work, and resolves the fault as recovered.
        """
        return self.fire(SITE_GROUP) is not None


_ACTIVE: Optional[FaultInjector] = None


def active() -> Optional[FaultInjector]:
    """The installed injector, or None when fault injection is off."""
    return _ACTIVE


@contextmanager
def injecting(plan: FaultPlan) -> Iterator[FaultInjector]:
    """Install a fresh injector for ``plan`` for the duration of the block."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise FaultError("fault injection is already active")
    injector = FaultInjector(plan)
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = None
