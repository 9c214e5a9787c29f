"""Named strategy/engine registry behind :func:`repro.api.solve`.

Every way this repo can execute a branch-and-cut search — the free
host-side engine, the paper's four metered single-node strategies, and
any engine an experiment registers at runtime — lives here under a
string name.  :func:`repro.api.solve` resolves ``options.strategy``
through this registry, so the CLI, the serving layer, and the
benchmarks all construct engines the same way.

Names registered by default:

- ``"direct"`` — exact host-side :class:`~repro.mip.solver.ExecutionEngine`
  with no simulated device costs;
- ``"gpu_only"``, ``"cpu_orchestrated"``, ``"hybrid"``, ``"big_mip_4"``
  — the paper's §5 strategies (metered devices);
- ``"pdhg"``, ``"pdhg_gpu"`` — restarted first-order node LPs on a
  :class:`~repro.strategies.engine.MeteredEngine` with
  ``node_lp="pdhg"``, priced on the host CPU / as fused matvec kernels
  on a V100, degrading pdhg_gpu → pdhg → direct so the chain passes
  through a CPU host;
- ``"portfolio"`` — the hybrid engine fronted by the batched
  primal-heuristic portfolio (:mod:`repro.mip.portfolio`), degrading
  portfolio → hybrid so a faulted device drops the heuristic phase.

``register_strategy`` lets experiments add their own factories;
re-registering an existing name is refused, so a typo cannot silently
shadow a built-in.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.errors import ReproError
from repro.mip.solver import ExecutionEngine

#: An engine factory: () -> fresh engine instance.
EngineFactory = Callable[[], ExecutionEngine]

_REGISTRY: Dict[str, EngineFactory] = {}
_FALLBACKS: Dict[str, Optional[str]] = {}


def register_strategy(
    name: str, factory: EngineFactory, fallback: Optional[str] = None
) -> None:
    """Register an engine factory under ``name``.

    ``fallback`` names the strategy to degrade to when this one dies on
    an unrecoverable injected fault (see :mod:`repro.faults`); chains
    end at a strategy with no fallback (``"direct"`` touches no
    simulated device, so no device fault can reach it).
    """
    if name in _REGISTRY:
        raise ReproError(f"strategy {name!r} is already registered")
    _REGISTRY[name] = factory
    _FALLBACKS[name] = fallback


def fallback_for(name: str) -> Optional[str]:
    """The degradation target registered for ``name`` (None = end of chain)."""
    return _FALLBACKS.get(name)


def strategy_factory(name: str) -> EngineFactory:
    """The factory registered under ``name`` (raises on unknown names)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ReproError(
            f"unknown strategy {name!r}; choose from {available_strategies()}"
        ) from None


def engine_for(name: str) -> ExecutionEngine:
    """Construct a fresh engine for the named strategy."""
    return strategy_factory(name)()


def available_strategies() -> List[str]:
    """Sorted registered strategy names."""
    return sorted(_REGISTRY)


def metered_strategies() -> List[str]:
    """Sorted names whose engines meter a platform and report on it.

    Everything but the free host-side ``"direct"`` engine, whose reports
    carry no ``metrics["platform"]`` section.
    """
    return [name for name in available_strategies() if name != "direct"]


def _register_builtins() -> None:
    # Imported lazily so the registry module stays import-light.
    from repro.device.spec import CPU_HOST, V100
    from repro.strategies.big_mip import BigMipEngine
    from repro.strategies.engine import CpuOrchestratedEngine, MeteredEngine
    from repro.strategies.gpu_only import GpuOnlyEngine
    from repro.strategies.hybrid import HybridEngine, PortfolioEngine

    register_strategy("direct", ExecutionEngine)
    # The paper's §5 strategies 1-4 (metered devices).
    register_strategy("gpu_only", GpuOnlyEngine, fallback="cpu_orchestrated")
    register_strategy("cpu_orchestrated", CpuOrchestratedEngine, fallback="direct")
    register_strategy("hybrid", HybridEngine, fallback="cpu_orchestrated")
    register_strategy("big_mip_4", lambda: BigMipEngine(num_devices=4), fallback="hybrid")
    register_strategy("portfolio", PortfolioEngine, fallback="hybrid")
    # Restarted first-order (PDHG) node LPs, priced on the host CPU / as
    # fused matvec kernels on a V100.
    register_strategy("pdhg", lambda: MeteredEngine(CPU_HOST, node_lp="pdhg"), fallback="direct")
    register_strategy("pdhg_gpu", lambda: MeteredEngine(V100, node_lp="pdhg"), fallback="pdhg")


_register_builtins()
