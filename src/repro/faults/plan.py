"""Fault plans: the seeded, replayable description of what will break.

A :class:`FaultPlan` is the whole input of the fault-injection plane —
a seed, per-site Bernoulli fault rates, an explicit schedule of faults
pinned to occurrence indices, a total failure budget, and the recovery
policy (retry/backoff, strategy degradation).  Everything downstream is
a pure function of the plan: running the same plan against the same
workload reproduces the same faults, the same recoveries, and the same
final report — a chaos run *is* its plan, which makes every failure a
replayable bug report (``FaultPlan.save`` / ``FaultPlan.load``).

Injection sites (occurrence counters are per site; ``comm.rank``
counts per rank):

========================  ====================================================
``device.kernel``         one kernel launch dies partway (in-place retry)
``device.ecc``            uncorrectable ECC error (retry cannot help)
``device.transfer``       h2d/d2h crossing times out or arrives corrupted
``comm.rank``             a simulated MPI rank drops out mid-run
``serve.worker``          a serve worker crashes mid-batch
``mip.node``              the B&B driver is killed after a node pop
``cluster.group``         a whole cluster worker group fail-stops
========================  ====================================================
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import FaultError

SITE_KERNEL = "device.kernel"
SITE_ECC = "device.ecc"
SITE_TRANSFER = "device.transfer"
SITE_RANK = "comm.rank"
SITE_WORKER = "serve.worker"
SITE_NODE = "mip.node"
SITE_GROUP = "cluster.group"

#: Every recognised injection site.
SITES = (
    SITE_KERNEL,
    SITE_ECC,
    SITE_TRANSFER,
    SITE_RANK,
    SITE_WORKER,
    SITE_NODE,
    SITE_GROUP,
)

#: Kinds a transfer fault may take (rate-based faults draw uniformly).
TRANSFER_KINDS = ("timeout", "corrupt")


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    ``max_attempts`` bounds the total tries per operation (1 = never
    retry); ``delay(attempt, rng)`` prices the wait before attempt
    ``attempt + 1`` in simulated seconds.
    """

    max_attempts: int = 3
    base_delay: float = 1e-4
    factor: float = 2.0
    #: Fraction of the base delay added as uniform jitter.
    jitter: float = 0.5

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Backoff before the next try, after ``attempt`` failures."""
        base = self.base_delay * self.factor ** max(0, attempt - 1)
        return base * (1.0 + self.jitter * rng.random())

    def to_dict(self) -> Dict[str, float]:
        return {
            "max_attempts": self.max_attempts,
            "base_delay": self.base_delay,
            "factor": self.factor,
            "jitter": self.jitter,
        }

    @classmethod
    def from_dict(cls, doc: Dict) -> "RetryPolicy":
        return cls(
            max_attempts=int(doc.get("max_attempts", 3)),
            base_delay=float(doc.get("base_delay", 1e-4)),
            factor=float(doc.get("factor", 2.0)),
            jitter=float(doc.get("jitter", 0.5)),
        )


@dataclass(frozen=True)
class ScheduledFault:
    """One fault pinned to a site's ``at``-th occurrence (0-based).

    Scheduled faults always fire (they bypass the rate draw and the
    failure budget) — they are the "replay exactly this" primitive.
    For ``comm.rank`` the occurrence counter is per rank, so ``rank``
    must be set; other sites ignore it.
    """

    site: str
    at: int
    #: Fault kind ("" = the site's default; transfers: timeout/corrupt).
    kind: str = ""
    #: Target rank for ``comm.rank`` faults (-1 elsewhere).
    rank: int = -1

    def __post_init__(self):
        if self.site not in SITES:
            raise FaultError(f"unknown fault site {self.site!r}")
        if self.site == SITE_RANK and self.rank < 0:
            raise FaultError("comm.rank faults must name a rank")

    def to_dict(self) -> Dict:
        return {"site": self.site, "at": self.at, "kind": self.kind, "rank": self.rank}

    @classmethod
    def from_dict(cls, doc: Dict) -> "ScheduledFault":
        return cls(
            site=doc["site"],
            at=int(doc["at"]),
            kind=doc.get("kind", ""),
            rank=int(doc.get("rank", -1)),
        )


#: On-disk format version for saved plans.
PLAN_FORMAT_VERSION = 1

#: Fault budget of a :meth:`FaultPlan.generate` plan.
GENERATED_MAX_FAULTS = 4
#: Fault budget and per-site rates of a :meth:`FaultPlan.survivable` plan.
SURVIVABLE_BUDGET = 3
SURVIVABLE_RATES = {
    SITE_KERNEL: 0.05,
    SITE_ECC: 0.01,
    SITE_TRANSFER: 0.05,
    SITE_WORKER: 0.2,
    SITE_NODE: 0.03,
}


@dataclass(frozen=True)
class FaultPlan:
    """Everything the injector needs, and nothing it cannot replay."""

    seed: int = 0
    #: Per-site Bernoulli fault probability per occurrence.
    rates: Dict[str, float] = field(default_factory=dict)
    #: Faults pinned to exact occurrence indices.
    scheduled: Tuple[ScheduledFault, ...] = ()
    #: Total rate-based faults allowed (None = unlimited); scheduled
    #: faults always fire but still count toward the injected total.
    max_faults: Optional[int] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Allow GPU→CPU strategy degradation on unrecoverable device faults.
    degrade: bool = True
    #: Wasted time of a timed-out transfer, as a multiple of its nominal cost.
    transfer_timeout_factor: float = 2.0
    name: str = ""

    def __post_init__(self):
        for site in self.rates:
            if site not in SITES:
                raise FaultError(f"unknown fault site {site!r} in rates")
        for site, rate in self.rates.items():
            if not 0.0 <= rate <= 1.0:
                raise FaultError(f"rate for {site!r} must be in [0, 1], got {rate}")

    # -- introspection -----------------------------------------------------------

    def touches(self, site: str) -> bool:
        """True when this plan can ever fire at ``site``."""
        if self.rates.get(site, 0.0) > 0.0:
            return True
        return any(f.site == site for f in self.scheduled)

    @property
    def empty(self) -> bool:
        """True when no site can ever fire."""
        return not any(self.touches(site) for site in SITES)

    # -- constructors ------------------------------------------------------------

    @classmethod
    def generate(cls, seed: int, intensity: str = "light") -> "FaultPlan":
        """A seeded random-rate plan at a named intensity profile."""
        profiles = {
            "light": {SITE_KERNEL: 0.02, SITE_TRANSFER: 0.02, SITE_WORKER: 0.05},
            "heavy": {
                SITE_KERNEL: 0.08,
                SITE_ECC: 0.01,
                SITE_TRANSFER: 0.08,
                SITE_WORKER: 0.2,
                SITE_NODE: 0.02,
            },
        }
        try:
            base = profiles[intensity]
        except KeyError:
            raise FaultError(
                f"unknown intensity {intensity!r}; choose from {sorted(profiles)}"
            ) from None
        rng = random.Random(f"plan:{seed}:{intensity}")
        rates = {site: rate * (0.5 + rng.random()) for site, rate in base.items()}
        return cls(
            seed=seed,
            rates=rates,
            max_faults=GENERATED_MAX_FAULTS,
            retry=RetryPolicy(max_attempts=GENERATED_MAX_FAULTS + 2),
            name=f"{intensity}-{seed}",
        )

    @classmethod
    def survivable(cls, seed: int) -> "FaultPlan":
        """A plan whose failure budget guarantees eventual completion.

        With ``retry.max_attempts > budget``, no retry loop can exhaust
        its attempts on rate-based faults alone, and degradation absorbs
        anything unrecoverable — so every run under a survivable plan
        finishes with zero escaped faults.
        """
        return cls(
            seed=seed,
            rates=dict(SURVIVABLE_RATES),
            max_faults=SURVIVABLE_BUDGET,
            retry=RetryPolicy(max_attempts=SURVIVABLE_BUDGET + 2),
            degrade=True,
            name=f"survivable-{seed}",
        )

    # -- persistence (the replay corpus format) ----------------------------------

    def to_dict(self) -> Dict:
        return {
            "version": PLAN_FORMAT_VERSION,
            "name": self.name,
            "seed": self.seed,
            "rates": {k: self.rates[k] for k in sorted(self.rates)},
            "scheduled": [f.to_dict() for f in self.scheduled],
            "max_faults": self.max_faults,
            "retry": self.retry.to_dict(),
            "degrade": self.degrade,
            "transfer_timeout_factor": self.transfer_timeout_factor,
        }

    @classmethod
    def from_dict(cls, doc: Dict) -> "FaultPlan":
        version = doc.get("version", PLAN_FORMAT_VERSION)
        if version != PLAN_FORMAT_VERSION:
            raise FaultError(f"unsupported fault-plan version {version!r}")
        return cls(
            seed=int(doc.get("seed", 0)),
            rates={k: float(v) for k, v in doc.get("rates", {}).items()},
            scheduled=tuple(
                ScheduledFault.from_dict(f) for f in doc.get("scheduled", [])
            ),
            max_faults=doc.get("max_faults"),
            retry=RetryPolicy.from_dict(doc.get("retry", {})),
            degrade=bool(doc.get("degrade", True)),
            transfer_timeout_factor=float(doc.get("transfer_timeout_factor", 2.0)),
            name=doc.get("name", ""),
        )

    def save(self, path: str) -> None:
        """Write the plan as JSON (a replayable chaos bug report)."""
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        """Read a plan written by :meth:`save`."""
        with open(path) as handle:
            return cls.from_dict(json.load(handle))
