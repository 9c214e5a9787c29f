"""Golden search traces: the simulated program is the same, bit for bit.

``golden_search_traces.json`` was recorded at the commit *before* kernel
prices were memoised, ``Device._charge`` wrote straight into its bound
stores, ``LUFactors`` started carrying its solve forms and the standard
form lost its Python loops.  Every one of those changes promises to
move no simulated number, so each search here must still visit the same
nodes, launch the same kernels under the same names, cross the link as
often, peak at the same memory and land on the same makespan and energy
down to the last bit (``repr`` of the floats).

Regenerate (only when a PR *means* to move the model)::

    PYTHONPATH=src python tests/strategies/test_golden_search_traces.py
"""

import json
from pathlib import Path

import pytest

from repro.api import SolveOptions, solve
from repro.device.gpu import Device
from repro.device.spec import V100
from repro.mip.solver import SolverOptions
from repro.problems.knapsack import generate_knapsack
from repro.problems.random_mip import generate_random_mip
from repro.strategies import registry

GOLDEN = Path(__file__).with_name("golden_search_traces.json")

INSTANCES = {
    "knap-strong-18/s3": (
        lambda: generate_knapsack(18, seed=3, correlation="strong"),
        SolverOptions(),
    ),
    "rand-16x10/s1": (
        lambda: generate_random_mip(16, 10, seed=1, integer_fraction=1.0),
        SolverOptions(),
    ),
    # Two cut rounds at shallow nodes: rows are appended, the basis is
    # extended and re-solved by the dual simplex, cut rows cross the link.
    "rand-12x8/s2+cuts": (
        lambda: generate_random_mip(12, 8, seed=2, integer_fraction=1.0),
        SolverOptions(cut_rounds=2),
    ),
}

STRATEGIES = ("hybrid", "gpu_only", "cpu_orchestrated", "batched_node", "big_mip_4")


def _engine_devices(engine):
    devices = list(getattr(engine, "devices", ()))
    if not devices:
        devices = [engine.device]
        if hasattr(engine, "cpu"):
            devices.append(engine.cpu)
    return devices


def trace(instance: str, strategy: str) -> dict:
    """Everything a search leaves on the simulated platform."""
    build, solver_options = INSTANCES[instance]
    captured = []  # every simulated device the search charges, in a stable order
    if strategy == "batched_node":
        device = Device(V100)
        captured.append(device)
        options = SolveOptions(
            strategy=strategy, solver=solver_options, mip_node_batch=4, device=device
        )
    else:
        engine = registry.engine_for(strategy, solver_options.simplex)
        captured.extend(_engine_devices(engine))
        options = SolveOptions(strategy=strategy, solver=solver_options, engine=engine)
    report = solve(build(), options)

    def counters(prefix):
        out = {}
        for device in captured:
            for key, value in device.metrics.to_dict()["counters"].items():
                if key.startswith(prefix):
                    out[key] = out.get(key, 0) + value
        return dict(sorted(out.items()))

    stats = report.result.stats
    return {
        "status": report.status,
        "objective": repr(float(report.objective)),
        "nodes": report.nodes,
        "lp_iterations": report.lp_iterations,
        "cuts_added": stats.cuts_added,
        "kernels": counters("kernels."),
        "transfers": counters("transfers."),
        "mem_peak_bytes": [device.memory.peak for device in captured],
        "makespan_seconds": repr(float(report.makespan_seconds)),
        "busy_seconds": [repr(float(device.busy_seconds)) for device in captured],
        "energy_joules": [repr(float(device.energy_joules)) for device in captured],
        "incumbent_history": [
            [nodes, repr(float(value))] for nodes, value in stats.incumbent_history
        ],
    }


CASES = [(instance, strategy) for instance in INSTANCES for strategy in STRATEGIES]


@pytest.mark.parametrize("instance,strategy", CASES)
def test_search_trace_matches_golden(instance, strategy):
    golden = json.loads(GOLDEN.read_text())[f"{instance}|{strategy}"]
    assert trace(instance, strategy) == golden


def test_cut_instance_generates_cuts():
    golden = json.loads(GOLDEN.read_text())
    assert all(
        golden[f"rand-12x8/s2+cuts|{strategy}"]["cuts_added"] > 0
        for strategy in STRATEGIES
    )


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(
            {f"{i}|{s}": trace(i, s) for i, s in CASES}, indent=1, sort_keys=True
        )
        + "\n"
    )
    print(f"recorded {len(CASES)} traces -> {GOLDEN}")
