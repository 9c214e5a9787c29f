"""Golden search traces: the simulated program is the same, bit for bit.

``golden_search_traces.json`` pins every search here: the same nodes,
the same kernels under the same names, as many link crossings, the same
peak memory, and the same makespan and energy down to the last bit
(``repr`` of the floats).  A PR that promises to move no simulated
number must leave the file alone.

Last recorded when the dual loop began to read ρ = B⁻ᵀe_r as a row of
the resident inverse instead of solving for it (DESIGN.md "One launch
per step"): all 15 cases kept their status, nodes, cuts, incumbent trail
and LP iterations, and only kernels, times and energy moved — one GEMV
fewer per dual pivot on each device (a ``big_mip_4`` row read is a
gather, no kernel).  Under ``hybrid``: 241 → 217 kernels and 49.3 →
44.4 µs, 1 231 → 1 097 and 266 → 238 µs, 1 422 → 1 261 and 301 → 267
µs; ``big_mip_4`` 2.51 → 2.39, 13.14 → 12.43 and 14.98 → 14.13 ms.
Before that, when every cold LP began the dual loop from its slack
basis (DESIGN.md "One LP door"): all 15 cases kept their status, nodes,
cuts and incumbent trail, and only LP iterations, kernels, times and
energy moved.  A root takes the dual loop's few pivots where the
two-phase primal took its phase 1 (LP iterations knap-strong-18/s3
33 → 24, rand-12x8/s2+cuts 70 → 56, rand-16x10/s1 186 → 161), and it
leaves its inverse to its children, which no longer invert the root's
basis afresh.  Under ``hybrid``: 370 → 241 kernels and 79.1 → 49.3 µs,
1 454 → 1 231 and 323 → 266 µs, 1 697 → 1 422 and 380 → 301 µs;
``big_mip_4`` 3.70 → 2.51, 15.25 → 13.14 and 17.76 → 14.98 ms.
Before that, when the revised primal loop began to take a pricing
pass's whole run of bound flips, then its pivot (DESIGN.md "Bounds out
of the basis"): only the five ``knap-strong-18/s3`` cases moved, at the
same status, nodes (24), cuts and incumbent trail — the other instances'
roots flip nothing.  Its root relaxation takes 13 fewer pricing passes
than it took one-flip iterations (LP iterations 46 → 33), so 85 fewer
kernels per device (``hybrid`` 455 → 370 kernels, 97.6 → 79.1 µs;
``batched_node`` 1.78 → 1.32 ms; ``big_mip_4`` 4.46 → 3.70 ms).
Before that, when cut rounds moved onto the standard form the tree
solves on (bounds beside the matrix, DESIGN.md "Bounds out of the
basis"): only the five ``rand-12x8/s2+cuts`` cases moved, at the same
status, nodes (46), cuts (90), LP iterations and incumbent trail.  A cut
row now spans the real rows' columns only, so a round ships fewer bytes
(``gpu_only`` 25 992 → 17 352 h2d bytes) and the dual re-solves take
fewer pivots (106 rank-1 updates where 123 ran): 68 fewer kernels per
device, ``hybrid`` 1 522 → 1 454 kernels and 352 → 323 µs,
``big_mip_4`` 16.03 → 15.25 ms.
Before that, with ``--tree-moved``, when the width-k driver stopped
pinning most-fractional branching and no rounding heuristic over the
caller's ``SolverOptions``: only the three ``batched_node`` cases moved,
each to the tree the default rules grow at width 4, with the same status
and objective (knap-strong-18/s3 46 → 24 nodes, 2.05 → 1.78 ms;
rand-12x8/s2+cuts 77 → 46 nodes, 94 → 90 cuts, 9.19 → 7.92 ms;
rand-16x10/s1 187 → 84 nodes, 7.84 → 4.93 ms).  Before that, when
every branching's children were propagated through
the rows (DESIGN.md "Domain propagation at every branching"), with
``--tree-moved``: every status and objective stayed, and the trees
shrank on 14 of 15 cases (knap-strong-18/s3 under ``hybrid`` 43 → 24
nodes, rand-12x8/s2+cuts 74 → 46, rand-16x10/s1 115 → 92; under
``batched_node`` 59 → 46 and 106 → 77), with LP iterations, kernels,
times and energy following.  In the same change MIR cuts began to shift
a node's rows by the node's lower bounds instead of the root's (a cut
from the root's space could cut off a node's optimum), so
``rand-12x8/s2+cuts`` adds 90 cuts where it added 89 (``batched_node``
94, was 92).  ``rand-16x10/s1|batched_node`` keeps its 187 nodes and pays
81 propagation launches on top (7.33 → 7.84 ms); on 92 nodes instead of
115 ``rand-16x10/s1`` still reads slower under ``hybrid`` (376 → 380 µs)
and ``big_mip_4`` (17.09 → 17.76 ms: a sharded pass is two launches and
an allreduce on each of its four devices).  Before that, when the node-LP path became one (DESIGN.md
"One node-LP path"): only ``rand-12x8/s2+cuts|batched_node`` moved.  Its width-k
rounds had run their cut re-solves unpriced; they now launch on the
round engine's device after their rows cross the link, so kernels went
738 → 1 565, the makespan 4.06 → 9.41 ms and host→device copies 1 → 38,
at the same nodes, cuts, LP iterations and incumbent trail.  Every other
case stayed bit for bit.  Before that, when each warm pivot's
elementwise work moved into fused launches (DESIGN.md "One launch per
step"): every case kept its nodes,
LP iterations, cuts, transfers, peak memory and incumbent trail, and
only ``kernels``, ``makespan_seconds``, ``busy_seconds`` and
``energy_joules`` moved (knap-strong-18/s3 under ``hybrid`` 164 → 122
µs; ``big_mip_4`` also stopped paying an allreduce per non-reducing
pass).  Before that, when reduced-cost fixing entered the node loop,
trees shrank (knap-strong-18/s3 under ``hybrid`` 129 → 43 nodes) and
every count and time with them; every ``status`` and objective stayed.
The recorder refuses to overwrite the file unless
every case keeps the recorded ``status``, ``nodes``, ``cuts_added`` and
incumbent trail (objectives to 1e-9 relative) — or, with
``--tree-moved``, for a change that *means* to move the tree, the
recorded ``status`` and final objective.

Regenerate (only when a PR *means* to move the model)::

    PYTHONPATH=src python tests/strategies/test_golden_search_traces.py [--tree-moved]
"""

import json
import math
import sys
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
        engine = registry.engine_for(strategy)
        captured.extend(engine.devices)
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


def same_tree(new: dict, old: dict) -> bool:
    """The search the price is charged for did not move."""
    trail = lambda t: [n for n, _ in t["incumbent_history"]]
    values = lambda t: [float(v) for _, v in t["incumbent_history"]]
    return (
        all(new[key] == old[key] for key in ("status", "nodes", "cuts_added"))
        and trail(new) == trail(old)
        and all(
            math.isclose(a, b, rel_tol=1e-9)
            for a, b in zip(values(new), values(old))
        )
    )


def same_answer(new: dict, old: dict) -> bool:
    """The search may have moved; what it answered did not."""
    return new["status"] == old["status"] and math.isclose(
        float(new["objective"]), float(old["objective"]), rel_tol=1e-9
    )


if __name__ == "__main__":
    recorded = json.loads(GOLDEN.read_text())
    traces = {f"{i}|{s}": trace(i, s) for i, s in CASES}
    keeps = same_answer if "--tree-moved" in sys.argv[1:] else same_tree
    moved = [key for key in traces if not keeps(traces[key], recorded[key])]
    if moved:
        raise SystemExit(f"refusing to overwrite {GOLDEN}: {keeps.__name__} fails in {moved}")
    GOLDEN.write_text(json.dumps(traces, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(CASES)} traces -> {GOLDEN}")
