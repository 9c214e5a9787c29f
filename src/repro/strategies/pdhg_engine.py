"""Metered strategy engines running PDHG node relaxations.

The §5 strategies all drive the *simplex* kernel stream — factorization,
triangular solves, pricing — whose serial depth is what makes small node
LPs latency-bound on a GPU.  :class:`PdhgEngine` swaps the node LP for
the restarted first-order engine (:mod:`repro.lp.pdhg`), priced by the
one PDHG hook (:class:`repro.lp.pdhg_batch.PdhgDeviceHook`, a batch of
one): per attempted step the matvec pair with the elementwise updates
and the step limit's reduction fused in, three launches — the stream
the GPU-LP literature builds PDLP from.

Two registry entries use it (see :mod:`repro.strategies.registry`):

- ``"pdhg_gpu"`` — node LPs as PDHG kernel streams on the simulated
  V100;
- ``"pdhg"`` — the same algorithm priced on the host CPU, which is also
  the degradation target of ``"pdhg_gpu"``, giving the required chain
  pdhg_gpu → pdhg → direct with a CPU fallback in the middle.

Correctness policy is inherited from
:meth:`repro.mip.solver.ExecutionEngine._pdhg_relaxation`: only eps-KKT
OPTIMAL outcomes are used (with tolerance-padded bounds); anything else
re-solves through the engine's metered simplex, so statuses stay exact.
"""

from __future__ import annotations

from repro.device.spec import CPU_HOST, DeviceSpec
from repro.lp.pdhg_batch import PdhgDeviceHook
from repro.lp.result import LPResult
from repro.strategies.engine import MeteredEngine


class PdhgEngine(MeteredEngine):
    """Metered engine whose node LPs run restarted PDHG."""

    name = "pdhg"

    def __init__(self, spec: DeviceSpec = CPU_HOST):
        super().__init__(spec)
        self.node_lp = "pdhg"
        self._pdhg_hook = PdhgDeviceHook(self.device)

    def solve_relaxation(self, sf, warm_basis=None, probe=False) -> LPResult:
        # Probes (strong branching) want cheap truncated exact solves;
        # everything else tries the first-order engine first.
        if not probe:
            res = self._pdhg_relaxation(sf, hook=self._pdhg_hook)
            if res is not None:
                return res
            self.device.metrics.inc("pdhg.fallbacks")
        return super().solve_relaxation(sf, warm_basis=warm_basis, probe=probe)

    def end_search(self) -> None:
        # Surface the first-order work counters next to the kernel counts.
        for key, value in self.pdhg_stats.items():
            self.device.metrics.counters[f"pdhg.{key}"] = value
        super().end_search()
