"""Batched-node branch-and-bound: §5.5 applied to the search itself.

"For relatively small MIP problem sizes … it is conceivable (and
potentially more efficient) to solve multiple nodes at a time" — the
search loop is :class:`repro.mip.solver.BranchAndBoundSolver`'s; what
lives here is the engine that makes its rounds wide.
:class:`BatchedRoundEngine` has the driver pop up to ``width`` open
nodes per round, solves their LP relaxations together, and launches the
kernels its members ran as *batched* kernels (the MAGMA-style batch
routine of §4.3): members in lockstep share one launch per kernel
instead of paying one small kernel stream per node.

Numerics stay exact and per member (each node's LP is solved precisely
by the same warm-or-cold path as at width 1); the round merges what the
members recorded, so it charges every executed kernel exactly once and
nothing else.  What a node runs after its round — the fixing pass, cut
re-solves (the rows shipped host→device), probes — launches one kernel
at a time through the engine's ``lp_hook``.

The rules are the caller's: branching, node selection, pseudocosts and
the rounding heuristic run per node, in pop order, exactly as at width
1, so a round of one is the plain driver node for node.  At width k the
optimum matches the width-1 search; the explored tree may differ
because a whole round is solved before its results can prune each
other — the real trade-off a batched B&B accepts.

With ``node_lp="pdhg"`` the round is the one first-order round of
:meth:`repro.mip.solver.ExecutionEngine._pdhg_round` — all its node LPs
advance in one lockstep batch, two fused GEMMs per sweep for the whole
frontier, priced on the device by ``pdhg_hook`` — and only the members
it leaves short of eps-KKT OPTIMAL go through the taped exact round
(:meth:`BatchedRoundEngine._simplex_round`, the one part of the round's
composition this engine replaces).
"""

from __future__ import annotations

from collections import Counter
from itertools import zip_longest
from typing import List, Optional

from repro.device import kernels as K
from repro.device.gpu import Device
from repro.device.spec import V100
from repro.errors import ReproError
from repro.lp.pdhg_batch import PdhgDeviceHook
from repro.lp.problem import StandardFormLP
from repro.lp.warm import WarmSolveOutcome, solve_warm_or_cold
from repro.mip.problem import MIPProblem
from repro.mip.result import MIPResult
from repro.mip.solver import BranchAndBoundSolver, ExecutionEngine, SolverOptions


class BatchedRoundEngine(ExecutionEngine):
    """Up to ``width`` node LPs per round, their kernels launched batched."""

    def __init__(
        self,
        width: int = 16,
        device: Optional[Device] = None,
        node_lp: str = "simplex",
    ):
        super().__init__(node_lp=node_lp)
        if type(width) is not int or width < 1:
            raise ReproError(f"round width must be an int of at least 1, got {width!r}")
        self.round_width = width
        # Callers (e.g. the serving layer's worker pool) may supply the
        # device so several solves share one clock and metrics stream.
        self.device = device if device is not None else Device(V100)
        self.devices = [self.device]
        self.rounds = 0
        # strategies imports this package's driver, hence not at the top.
        from repro.strategies.engine import DeviceCostHook, KernelTape

        self._tape = KernelTape
        # What runs between rounds, one member at a time in pop order —
        # a node's fixing pass, its cut re-solves, its probes — launches
        # on the device as it runs.
        self.lp_hook = self.probe_hook = DeviceCostHook(self.device)
        self.pdhg_hook = PdhgDeviceHook(self.device)

    def begin_search(self, problem: MIPProblem, sf_root: StandardFormLP) -> None:
        if self.device.spec.is_accelerator:
            self.device.upload(sf_root.a)  # resident matrix, once

    def ship_cuts(self, cut_bytes: int) -> None:
        # The matrix is resident: only the cut rows cross the link.
        if self.device.spec.is_accelerator:
            self.device.transfers.host_to_device(cut_bytes)

    def solve_round(self, members) -> List[WarmSolveOutcome]:
        self.rounds += 1
        return super().solve_round(members)

    def _simplex_round(self, members) -> List[WarmSolveOutcome]:
        """Exact warm-or-cold solves, launched as the members ran them.

        Each member records its own kernel stream; the round then walks
        the pivots in lockstep and, at each, launches one batched kernel
        per group of live members whose next kernel is the same — so
        every executed kernel sits in exactly one launch, a cold
        member's inversion and set-up are priced as such beside
        its warm siblings, and a round of one is that member's stream.
        """
        solved, tapes = [], []
        for _, sf, warm in members:
            tape = self._tape()
            solved.append(solve_warm_or_cold(sf, warm, tape))
            tapes.append(tape.segments)
        for pivot in zip_longest(*tapes, fillvalue=()):
            for step in zip_longest(*pivot):
                for cost, size in Counter(filter(None, step)).items():
                    self.device._charge(K.batched_kernel(cost, size), None)
        return solved


class BatchedNodeSolver(BranchAndBoundSolver):
    """The driver over a :class:`BatchedRoundEngine`, under the caller's rules."""

    def __init__(
        self,
        problem: MIPProblem,
        options: Optional[SolverOptions] = None,
        batch_size: int = 16,
    ):
        options = options or SolverOptions()
        engine = BatchedRoundEngine(batch_size, node_lp=options.node_lp)
        super().__init__(problem, options, engine=engine)

    def solve(self) -> MIPResult:
        """Run the batched search to completion or the node limit."""
        # Defined here, not inherited: perf/trace.py patches this name.
        return super().solve()

    @property
    def device(self) -> Device:
        return self.engine.device

    @property
    def rounds(self) -> int:
        """Engine rounds that reached the device (all-pruned pops don't)."""
        return self.engine.rounds
