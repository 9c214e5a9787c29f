"""``hybrid`` prices strong-branching probes on the host cores.

§3.3's hybrid design runs the probes on the many-core host, overlapped
with the GPU's production LPs (``HybridEngine.probe_hook``).  Held here
on a GPU path: every probe charges ``engine.cpu`` and nothing else, and
the GPU's kernel stream is exactly the production node LPs' plus the
fixing passes that ride with them and the children's propagation, one
launch per pass.
"""

import pytest

from repro.mip.propagation import Propagator
from repro.mip.result import MIPStatus
from repro.mip.solver import BranchAndBoundSolver, SolverOptions
from repro.problems.knapsack import generate_knapsack
from repro.problems.random_mip import generate_random_mip
from repro.strategies import hybrid
from repro.strategies.chooser import PathChoice
from repro.strategies.engine import DeviceCostHook
from repro.strategies.hybrid import HybridEngine


@pytest.mark.parametrize(
    "problem",
    [
        generate_knapsack(16, seed=4, correlation="strong"),
        generate_random_mip(10, 6, seed=1, integer_fraction=1.0),
    ],
    ids=["knap16-strong", "rand-10x6"],
)
@pytest.mark.parametrize("path", [PathChoice.DENSE_GPU, PathChoice.SPARSE_GPU], ids=lambda p: p.value)
def test_probes_charge_only_the_host_cores(monkeypatch, problem, path):
    monkeypatch.setattr(hybrid, "choose_path", lambda *args, **kwargs: path)
    engine = HybridEngine()
    gpu, cpu = engine.device, engine.cpu
    launches = {"probe": [], "node": [], "fixing": [], "propagation": []}
    passes = []
    on_propagation = DeviceCostHook.on_propagation

    def pass_spy(self, k, m, n):
        passes.append(self.device)
        return on_propagation(self, k, m, n)

    def metered(kind, call):
        def spy(*args, **kwargs):
            before = gpu.kernel_count(), cpu.kernel_count()
            out = call(*args, **kwargs)
            launches[kind(*args, **kwargs)].append(
                (gpu.kernel_count() - before[0], cpu.kernel_count() - before[1])
            )
            return out

        return spy

    solve = HybridEngine.solve_relaxation
    fix = BranchAndBoundSolver._fix_by_reduced_cost
    monkeypatch.setattr(
        HybridEngine,
        "solve_relaxation",
        metered(lambda self, sf, warm=None, probe=False: "probe" if probe else "node", solve),
    )
    monkeypatch.setattr(
        BranchAndBoundSolver, "_fix_by_reduced_cost", metered(lambda *_: "fixing", fix)
    )
    monkeypatch.setattr(
        Propagator, "__call__", metered(lambda *_: "propagation", Propagator.__call__)
    )
    monkeypatch.setattr(DeviceCostHook, "on_propagation", pass_spy)
    result = BranchAndBoundSolver(
        problem, SolverOptions(branching="strong"), engine=engine
    ).solve()
    assert result.status is MIPStatus.OPTIMAL and engine.path is path

    probes = launches["probe"]
    production = launches["node"] + launches["fixing"] + launches["propagation"]
    assert len(probes) > 10
    assert all(on_gpu == 0 for on_gpu, _ in probes)
    assert all(on_cpu == 0 for _, on_cpu in production)
    assert gpu.kernel_count() == sum(on_gpu for on_gpu, _ in production) > 0
    assert cpu.kernel_count() == sum(on_cpu for _, on_cpu in probes) > 0
    # Every propagation pass is one launch in the GPU's stream.
    assert passes and all(device is gpu for device in passes)
    assert sum(on_gpu for on_gpu, _ in launches["propagation"]) == len(passes)
