"""Strategy 3: hybrid CPU and GPU execution (§3.3).

"Both the CPU and GPU architectures are employed … the ease of
implementing advanced heuristics such as probing, cut generation, column
generation, etc. while also exploiting the concurrency offered by the
many-core CPU architectures as well as the immense linear algebra
efficiencies offered by the multi-GPU architectures."

Concretely:

- the LP path is chosen at runtime per §5.4 (dense → GPU; sparse →
  whichever of GPU/CPU the cost model prefers, usually the CPU);
- the constraint matrix is mirrored on host *and* device, so CPU-side
  cut generation never needs the §5.2 device→host matrix round trip —
  only the new cut rows cross the link;
- probe LPs (strong branching) run on the host cores, leaving the GPU
  to the production relaxations.

The makespan is the max of the two devices' clocks (they genuinely
overlap in this design).  What one side hands the other is causal: the
portfolio on the GPU starts from a host-solved root only once the host
has solved it, and after its point and basis crossed the link
(``hand_off_root``).

:class:`PortfolioEngine` is the same engine asking for the batched
primal-heuristic portfolio (:mod:`repro.mip.portfolio`) in front of the
tree — §3.3's "advanced heuristics" on the host cores, taken to its
batched conclusion.
"""

from __future__ import annotations

from typing import Optional

from repro.device.gpu import Device
from repro.device.spec import CPU_HOST, V100
from repro.lp.pdhg_batch import PdhgDeviceHook
from repro.lp.problem import StandardFormLP
from repro.lp.result import LPResult
from repro.lp.warm import WarmSolveOutcome
from repro.mip.problem import MIPProblem
from repro.strategies.chooser import PathChoice, choose_path
from repro.strategies.engine import DeviceCostHook, MeteredEngine

_GPU_PATHS = (PathChoice.DENSE_GPU, PathChoice.SPARSE_GPU)
_DENSE_PATHS = (PathChoice.DENSE_GPU, PathChoice.DENSE_CPU)


class HybridEngine(MeteredEngine):
    """Runtime-routed LPs over one GPU plus the many-core host."""

    def __init__(self):
        super().__init__(V100)
        self.cpu = Device(CPU_HOST)
        # The two devices work concurrently; makespan is the slower one.
        self.devices = [self.device, self.cpu]
        self.path: Optional[PathChoice] = None
        # Strong-branching probes run on the host cores, overlapped with
        # the GPU's production LPs.
        self.probe_hook = DeviceCostHook(self.cpu, mode="sparse")

    def begin_search(self, problem: MIPProblem, sf_root: StandardFormLP) -> None:
        super().begin_search(problem, sf_root)
        density = self.lp_hook.density  # measured once, by the base engine
        self.path = choose_path(
            sf_root.m, sf_root.n, density, gpu=self.device.spec, cpu=self.cpu.spec
        )
        self.lp_hook = DeviceCostHook(
            self.device if self._lps_on_gpu() else self.cpu,
            mode="dense" if self.path in _DENSE_PATHS else "sparse",
            density=density,
        )
        self.probe_hook = DeviceCostHook(self.cpu, mode="sparse", density=density)
        self.pdhg_hook = PdhgDeviceHook(self.lp_hook.device)

    def solve_relaxation(self, sf, warm=None, probe=False) -> WarmSolveOutcome:
        # Defined here, not inherited: perf/trace.py patches this name.
        return super().solve_relaxation(sf, warm, probe)

    def _lps_on_gpu(self) -> bool:
        return self.device.spec.is_accelerator and self.path in _GPU_PATHS

    def begin_node(self, node_id: int, tree_distance: Optional[int]) -> None:
        # A node's bounds and basis list go to whichever side solves it:
        # nothing crosses the link on a CPU path.
        if self._lps_on_gpu():
            super().begin_node(node_id, tree_distance)

    def ship_cuts(self, cut_bytes: int) -> None:
        # The matrix is mirrored host-side, so only the cut rows move.
        if self._lps_on_gpu():
            self.device.transfers.host_to_device(cut_bytes)

    def hand_off_root(self, result: LPResult) -> None:
        # The portfolio runs on the GPU.  A root solved on the host cores
        # exists once they finish it, and then its point and basis cross.
        if not self._lps_on_gpu():
            self.device.clock.advance_to(self.cpu.clock.now)
            point = result.x if result.x_standard is None else result.x_standard
            self.device.transfers.host_to_device(
                sum(v.nbytes for v in (point, result.basis) if v is not None)
            )


class PortfolioEngine(HybridEngine):
    """Hybrid CPU+GPU engine that requests the portfolio phase.

    Before branch and bound opens the tree, the portfolio (seeded
    feasibility-jump restarts in lockstep, batched fix-and-propagate,
    LNS re-solves) sweeps for certified incumbents on the metered
    device, and the best one enters the search as a pruning bound.  The
    phase is injected by :func:`repro.api.solve` whenever
    ``wants_portfolio`` is set and the caller didn't pin a
    :class:`repro.mip.portfolio.PortfolioOptions` of their own.
    Degradation chains to ``"hybrid"`` (same LP routing, no heuristic
    phase).
    """

    #: Honored by :func:`repro.api._run_mip_engine`: inject default
    #: portfolio options when the caller didn't configure the phase.
    wants_portfolio = True
