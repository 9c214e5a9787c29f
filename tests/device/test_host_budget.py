"""A standing host budget for the three hottest host paths under the tree.

``perf/`` gates ``host_calls`` (Python + C function calls under
``cProfile``) per workload; these are the same count taken per
operation, so a regression shows up next to the code that caused it.
It is a count, not a clock: it repeats exactly on any machine.

Each budget sits between the reading after kernel prices, factor-time
solve forms and the loop-free standard form landed and the reading
before (quoted per test).
"""

import cProfile

import numpy as np

from repro.device.gpu import Device
from repro.device.spec import V100
from repro.la.dense import lu_factor, lu_solve
from repro.problems.knapsack import generate_knapsack
from repro.strategies.engine import DeviceCostHook

REPEAT = 50


def host_calls_per_op(op) -> float:
    """Profiled calls per ``op()``, caches warm, the profiler's own excluded."""
    op()  # first use fills whatever is built once (prices, solve forms)
    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(REPEAT):
        op()
    profiler.disable()
    total = sum(entry.callcount for entry in profiler.getstats())
    return (total - 1) / REPEAT  # minus the ``disable`` call itself


def test_synchronous_launch_through_the_cost_hook():
    """trsv, trsv, eta-chain: 21.3 calls per launch before, 8.0 now."""
    device = Device(V100)
    hook = DeviceCostHook(device)
    per_ftran = host_calls_per_op(lambda: hook.on_ftran(20, 5))
    assert device.kernel_count() == 3 * (REPEAT + 1)
    assert per_ftran / 3 <= 9


def test_transposed_solve_on_a_warm_factorization():
    """43 calls per solve before (np.triu/np.tril + swap loop), 7 now."""
    rng = np.random.default_rng(0)
    factors = lu_factor(rng.standard_normal((16, 16)))
    b = rng.standard_normal(16)
    assert host_calls_per_op(lambda: lu_solve(factors, b, transposed=True)) <= 12


def test_standard_form_of_a_knapsack_node():
    """217 calls per conversion before (one row per bounded variable), 24 now."""
    node = generate_knapsack(30, seed=0).relaxation().with_bounds(3, ub=0.0)
    assert host_calls_per_op(node.to_standard_form) <= 70
