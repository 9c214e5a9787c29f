"""repro.faults — seeded, deterministic fault injection + recovery.

The paper's platform is a Summit-class machine where long-running
supervisor–worker branch-and-bound must survive device and rank
failures via checkpointing and rebalancing (§2.3); this package makes
failure *injectable* and recovery *testable* across every simulated
layer:

- :mod:`repro.faults.plan` — :class:`FaultPlan`: seed, per-site rates,
  scheduled faults, failure budget, retry policy; JSON-replayable;
- :mod:`repro.faults.injector` — the deterministic injector the
  device, transfer engine, SimMPI, B&B driver, and serve scheduler
  consult (``active()`` / ``injecting(plan)``), plus the
  injected/recovered/tolerated/escaped accounting;
- :mod:`repro.faults.recovery` — the checkpoint-resume leaf worklist
  for the B&B search (the distributed search restarts itself after a
  lost rank: :func:`repro.strategies.distributed.solve_distributed`);
- :mod:`repro.faults.chaos` — the pinned corpus + harness behind
  ``repro chaos`` and ``make chaos``.

Typical use::

    from repro.api import solve, SolveOptions
    from repro.faults import FaultPlan

    plan = FaultPlan.survivable(seed=7)
    report = solve(problem, SolveOptions(strategy="gpu_only", fault_plan=plan))
    report.metrics["faults"]   # {'injected': n, 'recovered': ..., ...}

``recovery`` and ``chaos`` import the solver stack, which imports this
package's injector — keep this ``__init__`` limited to ``plan`` +
``injector`` so the cycle never closes.
"""

from repro.faults.injector import FaultInjector, active, injecting
from repro.faults.plan import (
    SITE_ECC,
    SITE_GROUP,
    SITE_KERNEL,
    SITE_NODE,
    SITE_RANK,
    SITE_TRANSFER,
    SITE_WORKER,
    SITES,
    TRANSFER_KINDS,
    FaultPlan,
    RetryPolicy,
    ScheduledFault,
)

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "RetryPolicy",
    "ScheduledFault",
    "active",
    "injecting",
    "SITES",
    "SITE_KERNEL",
    "SITE_ECC",
    "SITE_TRANSFER",
    "SITE_RANK",
    "SITE_WORKER",
    "SITE_NODE",
    "SITE_GROUP",
    "TRANSFER_KINDS",
]
