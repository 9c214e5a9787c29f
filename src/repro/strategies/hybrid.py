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
overlap in this design).

:class:`PortfolioEngine` is the same engine asking for the batched
primal-heuristic portfolio (:mod:`repro.mip.portfolio`) in front of the
tree — §3.3's "advanced heuristics" on the host cores, taken to its
batched conclusion.
"""

from __future__ import annotations

from typing import Optional

from repro.device.gpu import Device
from repro.device.spec import CPU_HOST, V100
from repro.lp.problem import StandardFormLP
from repro.lp.result import LPResult
from repro.mip.problem import MIPProblem
from repro.strategies.chooser import PathChoice, choose_path
from repro.strategies.engine import DeviceCostHook, MeteredEngine


class HybridEngine(MeteredEngine):
    """Runtime-routed LPs over one GPU plus the many-core host."""

    name = "hybrid"

    def __init__(self):
        super().__init__(V100)
        self.cpu = Device(CPU_HOST)
        self.path: Optional[PathChoice] = None
        self._cpu_hook = DeviceCostHook(self.cpu, mode="sparse")

    def begin_search(self, problem: MIPProblem, sf_root: StandardFormLP) -> None:
        super().begin_search(problem, sf_root)
        density = self._hook.density  # measured once, by the base engine
        self.path = choose_path(
            sf_root.m, sf_root.n, density, gpu=self.device.spec, cpu=self.cpu.spec
        )
        if self.path is PathChoice.DENSE_GPU:
            self._hook = DeviceCostHook(self.device, mode="dense", density=density)
        elif self.path is PathChoice.SPARSE_GPU:
            self._hook = DeviceCostHook(self.device, mode="sparse", density=density)
        elif self.path is PathChoice.DENSE_CPU:
            self._hook = DeviceCostHook(self.cpu, mode="dense", density=density)
        else:
            self._hook = DeviceCostHook(self.cpu, mode="sparse", density=density)
        self._cpu_hook = DeviceCostHook(self.cpu, mode="sparse", density=density)

    def solve_relaxation(self, sf, warm_basis=None, probe=False) -> LPResult:
        if probe:
            # Strong-branching probes run on the host cores, overlapped
            # with the GPU's production LPs.
            saved, self._hook = self._hook, self._cpu_hook
            try:
                return self._solve_with_hook(sf, warm_basis, probe)
            finally:
                self._hook = saved
        return self._solve_with_hook(sf, warm_basis, probe)

    def _lps_on_gpu(self) -> bool:
        gpu_paths = (PathChoice.DENSE_GPU, PathChoice.SPARSE_GPU)
        return self.device.spec.is_accelerator and self.path in gpu_paths

    def begin_node(self, node_id: int, tree_distance: Optional[int], matrix_bytes: int) -> None:
        # A node's bounds and basis list go to whichever side solves it:
        # nothing crosses the link on a CPU path.
        if self._lps_on_gpu():
            super().begin_node(node_id, tree_distance, matrix_bytes)

    def resolve_after_cuts(self, sf_grown, basis_extended, num_cuts, cut_bytes) -> LPResult:
        # The matrix is mirrored host-side, so only the cut rows move.
        if self._lps_on_gpu():
            self.device.transfers.host_to_device(cut_bytes)
        return self._dual_or_cold(sf_grown, basis_extended, self._hook)

    def end_search(self) -> None:
        super().end_search()
        self.cpu.synchronize()

    @property
    def elapsed_seconds(self) -> float:
        # The two devices work concurrently; makespan is the slower one.
        return max(self.device.clock.now, self.cpu.clock.now)

    def report(self, result, strategy=None):
        rep = super().report(result, strategy)
        rep.makespan_seconds = self.elapsed_seconds
        rep.kernels += self.cpu.metrics.count("kernels.total")
        rep.energy_joules += self.cpu.energy_joules
        rep.notes = f"path={self.path.value if self.path else '?'}"
        return rep


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

    name = "portfolio"
    #: Honored by :func:`repro.api._run_mip_engine`: inject default
    #: portfolio options when the caller didn't configure the phase.
    wants_portfolio = True
