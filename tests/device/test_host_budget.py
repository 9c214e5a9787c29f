"""A standing host budget for the hottest host paths under the tree and
the lockstep PDHG loop.

``perf/`` gates ``host_calls`` (Python + C function calls under
``cProfile``) per workload; these are the same count taken per
operation, so a regression shows up next to the code that caused it.
It is a count, not a clock: it repeats exactly on any machine.

Each budget sits between the reading after the change that cut a path
and the reading before (quoted per test): kernel prices, factor-time
solve forms and the loop-free standard form, then a launch and a PDHG
sweep with no host call of their own (DESIGN.md "A launch is one call").
"""

import cProfile
import sys

import numpy as np

from repro.device.gpu import Device
from repro.device.spec import V100
from repro.la.dense import lu_factor, lu_solve
from repro.lp.pdhg import (
    CHECK_EVERY,
    PDHGCostHook,
    PDHGOptions,
    _kkt,
    _lockstep_pdhg,
    saddle_from_lp,
)
from repro.lp.problem import LinearProgram
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
    """trsv, trsv, eta-chain: 21.3 calls per launch before prices, 8.0
    before the price key and the module-level injector / tracer reads,
    2.0 now (the hook's two methods and ``_charge`` itself)."""
    device = Device(V100)
    hook = DeviceCostHook(device)
    per_ftran = host_calls_per_op(lambda: hook.on_ftran(20, 5))
    assert device.kernel_count() == 3 * (REPEAT + 1)
    assert per_ftran / 3 <= 3


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


class SweepMarks(PDHGCostHook):
    """Reads a running call count at every attempted step and check."""

    def __init__(self, count):
        self.count = count
        self.marks = []

    def on_iteration(self, k, m, n):
        self.marks.append(self.count[0])

    def on_check(self, k, m, n):
        self.marks.append(self.count[0])


def calls_per_sweep(lps) -> set:
    """Profiled calls between consecutive attempted steps of one solve.

    Each reading is one sweep's body plus the next hook call, counted as
    cProfile counts (Python calls and C-function calls).
    """
    count = [0]

    def tally(frame, event, arg):
        if event == "call" or event == "c_call":
            count[0] += 1

    hook = SweepMarks(count)
    saddles = [saddle_from_lp(lp) for lp in lps]
    sys.setprofile(tally)
    try:
        _lockstep_pdhg(saddles, PDHGOptions(max_iterations=2 * CHECK_EVERY), hook)
    finally:
        sys.setprofile(None)
    # A check's own calls fall between its mark and the next step's.
    span = CHECK_EVERY + 1
    return {
        later - earlier
        for block in (hook.marks[:span], hook.marks[span:])
        for earlier, later in zip(block, block[1:])
    }


def frontier(k, m, n, shared):
    rng = np.random.default_rng(7)
    a = rng.standard_normal((m, n))
    return [
        LinearProgram(
            c=rng.standard_normal(n),
            a_ub=a if shared else rng.standard_normal((m, n)),
            b_ub=rng.random(m) * 4 + 0.5,
            ub=np.full(n, 10.0),
        )
        for _ in range(k)
    ]


def test_lockstep_sweep_over_a_shared_k():
    """8 members, one K (two GEMMs): 41 calls per attempted step before
    (``np.clip``, five ``np.where``, and three ``einsum`` and a
    ``full_like`` in the step limit), 20 now (NumPy 2.4)."""
    (per_sweep,) = calls_per_sweep(frontier(8, 12, 10, shared=True))
    assert per_sweep <= 24


def test_lockstep_sweep_over_a_stacked_k():
    """8 members, 8 matrices (the products are ``einsum`` too): 55 calls
    per attempted step before, 34 now (NumPy 2.4)."""
    (per_sweep,) = calls_per_sweep(frontier(8, 12, 10, shared=False))
    assert per_sweep <= 40


def test_one_members_kkt_check():
    """Equality and inequality rows, free, boxed and one-sided columns:
    46 calls per check before (four ``np.linalg.norm``, two ``np.where``,
    the finite-bound masks and their ``any`` per check), 8 now."""
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 5))
    lp = LinearProgram(
        c=rng.standard_normal(5),
        a_ub=a[2:],
        b_ub=rng.random(4) + 1.0,
        a_eq=a[:2],
        b_eq=rng.random(2),
        lb=np.array([0.0, -np.inf, 0.0, -np.inf, -1.0]),
        ub=np.array([1.0, 2.0, np.inf, np.inf, 3.0]),
    )
    s = saddle_from_lp(lp)
    x, y = rng.standard_normal(5), np.abs(rng.standard_normal(6))
    assert host_calls_per_op(lambda: _kkt(s, x, y)) <= 12
