"""Batched-node branch-and-bound tests (§5.5 end-to-end).

The batched solver is the one B&B driver over a width-k round engine,
run under the caller's rules; these tests pin both halves: the §5.5
economics of the engine and the driver behaviours (status, checkpoints,
kills, spans, heuristics) at width > 1.
"""

import contextlib
import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.api import SolveOptions, solve
from repro.device.gpu import Device
from repro.device.spec import V100
from repro.faults.injector import injecting
from repro.faults.plan import SITE_NODE, FaultPlan, ScheduledFault
from repro.faults.recovery import solve_with_checkpoint_resume
from repro.mip.batch_solver import BatchedNodeSolver, BatchedRoundEngine
from repro.mip.problem import MIPProblem
from repro.mip.result import MIPStatus
from repro.mip.solver import BranchAndBoundSolver, SolverOptions
from repro.problems.knapsack import generate_knapsack, knapsack_dp_optimal
from repro.problems.random_mip import generate_random_mip
from repro.strategies.engine import CpuOrchestratedEngine

from ..lp._reference_primal import one_flip_loop


class TestCorrectness:
    @pytest.mark.parametrize("batch_size", [1, 4, 16])
    def test_same_optimum_as_serial(self, batch_size):
        p = generate_knapsack(16, seed=4)
        expected, _ = knapsack_dp_optimal(p)
        res = BatchedNodeSolver(p, batch_size=batch_size).solve()
        assert res.status is MIPStatus.OPTIMAL
        assert res.objective == pytest.approx(expected)
        assert p.is_feasible(res.x)

    def test_infeasible(self):
        p = MIPProblem(
            c=[1.0],
            integer=np.array([True]),
            a_ub=[[1.0], [-1.0]],
            b_ub=[0.7, -0.5],
            ub=[1.0],
        )
        res = BatchedNodeSolver(p).solve()
        assert res.status is MIPStatus.INFEASIBLE

    def test_node_limit(self):
        p = generate_knapsack(24, seed=1, correlation="strong")
        res = BatchedNodeSolver(
            p, SolverOptions(node_limit=8), batch_size=4
        ).solve()
        assert res.status is MIPStatus.NODE_LIMIT

    def test_mixed_integer(self):
        p = generate_random_mip(8, 5, seed=3, integer_fraction=0.5, bound=4.0)
        serial = BranchAndBoundSolver(p, SolverOptions()).solve()
        batched = BatchedNodeSolver(p, batch_size=8).solve()
        assert batched.objective == pytest.approx(serial.objective, abs=1e-6)

    def test_root_unbounded_is_unbounded(self):
        p = MIPProblem(
            c=[1.0, 1.0],
            integer=np.array([True, False]),
            a_ub=[[1.0, -1.0]],
            b_ub=[1.0],
            lb=[0.0, 0.0],
            ub=[3.0, np.inf],
        )
        res = BatchedNodeSolver(p, batch_size=4).solve()
        assert res.status is MIPStatus.UNBOUNDED


#: E13's instance: under the caller's rules the smaller knapsacks close
#: in a handful of rounds, too few for width to show.
E13_KNAPSACK = generate_knapsack(20, seed=2, correlation="strong")


class TestBatchingEconomics:
    def test_batched_kernel_stream(self):
        """Re-pinned at ISSUE 23: a round launches what its members ran, not
        a stylised getrf + trsv + gemm sequence per round.  Only the root
        inverts, its slack basis (getrf + getri), and it leaves that
        inverse to its children, as every later parent does: each member
        pivots on its parent's inverse, batched with its siblings.  On E13's knapsack since the driver runs the
        caller's rules: knapsack-16/s4 closes in 18 nodes and 5 rounds,
        where single-member rounds outnumber batched ones."""
        solver = BatchedNodeSolver(E13_KNAPSACK, batch_size=8)
        solver.solve()
        metrics = solver.device.metrics

        def count(name):
            # A fused launch counts under the kernel that leads it.
            return sum(
                value for key, value in metrics.counters.items()
                if key.startswith("kernels.") and key[8:].split("+")[0] == name
            )

        assert count("getrf") == count("getri") == 1
        assert count("batched_getrf") == count("batched_getri") == 0
        assert count("batched_trsv") == 0
        assert count("batched_gemv") > count("gemv") > 0
        assert solver.rounds < solver.stats.nodes_processed

    def test_faster_than_serial_per_node_launches(self):
        """The §5.5 claim end-to-end: batched node rounds reach the optimum
        faster than one small kernel stream per node under the same rules.
        Read on time to optimality, as E13 is: nodes per second rewards a
        bigger tree."""
        serial_engine = CpuOrchestratedEngine()
        serial = BranchAndBoundSolver(E13_KNAPSACK, SolverOptions(), engine=serial_engine)
        serial_result = serial.solve()

        batched = BatchedNodeSolver(E13_KNAPSACK, batch_size=16)
        batched_result = batched.solve()

        assert batched_result.objective == pytest.approx(serial_result.objective)
        assert serial_engine.elapsed_seconds > 2 * batched.device.clock.now

    def test_larger_batches_fewer_rounds(self):
        p = generate_knapsack(18, seed=6)
        small = BatchedNodeSolver(p, batch_size=2)
        small.solve()
        large = BatchedNodeSolver(p, batch_size=32)
        large.solve()
        assert large.rounds < small.rounds

    @pytest.mark.parametrize(
        "width, nodes, rounds, getrf, clock, one_flip_clock",
        [
            (4, 86, 24, 3, 0.0019094867801709519, 0.0019094867801709519),
            (16, 71, 9, 1, 0.0008239220088888883, 0.0008239220088888883),
        ],
        ids=["width4", "width16"],
    )
    def test_width_k_goldens(self, width, nodes, rounds, getrf, clock, one_flip_clock):
        """Nodes, rounds and clock of the batched driver on E13's knapsack.

        The clock was re-read when the dual loop began to read ρ = B⁻ᵀe_r
        as a row of the resident inverse instead of solving for it, one
        GEMV fewer per pivot (2.030 → 1.909 ms at width 4, 0.869 → 0.824
        ms at width 16, same nodes, rounds and getrf).
        Before that it was re-read when the cold root began the dual loop from
        its slack basis (2.880 → 2.030 ms at width 4, 1.719 → 0.869 ms at
        width 16, same nodes and rounds): no primal runs, so the one-flip
        loop reads the same clock, and the root's children pivot on the
        inverse it leaves instead of inverting its basis afresh.
        Before that it was re-read when the revised primal loop began to take
        a pricing pass's whole run of bound flips (the root's cold solve:
        3.384 → 2.880 ms at width 4, 2.223 → 1.719 ms at width 16); the
        one-flip loop (``_reference_primal.py``) still reads the old
        clock, at the same nodes and rounds.
        Re-recorded when the driver stopped pinning most-fractional
        branching and no rounding heuristic over the caller's options:
        under the default rules knapsack-18/s6 (39 / 127 nodes in 11
        rounds, 1.561 / 1.722 ms before) closes in 7 nodes, so the goldens
        moved to E13's instance, whose tree at these widths went 124 / 125
        → 86 / 71 nodes.  The old goldens' clock had been re-read when a
        round began to launch its members' recorded kernels merged, when
        launches were fused, and when each round's children were
        propagated through the rows.  The root inverts its slack basis;
        at width 4 a basis inverted by a member alone in its round is a
        plain getrf + getri, twice more."""
        for loop, expected in ((contextlib.nullcontext(), clock), (one_flip_loop(), one_flip_clock)):
            with loop:
                solver = BatchedNodeSolver(E13_KNAPSACK, batch_size=width)
                res = solver.solve()
            assert res.objective == 617.0
            assert res.stats.nodes_processed == nodes
            assert solver.rounds == rounds
            assert solver.device.metrics.count("kernels.getrf") == getrf
            assert solver.device.clock.now == expected


#: The rules BatchedNodeSolver used to pin over the caller's options; the
#: width-1 identity holds under them as under the defaults.
_PINNED = dict(
    branching="most_fractional",
    node_selection="best_first",
    use_rounding_heuristic=False,
)

#: ``(nodes, lp_iterations, the one-flip loop's lp_iterations)`` under the
#: pinned rules, then under the defaults.  Every root is the dual loop from
#: its slack basis, so no primal runs and the one-flip loop reads the same
#: (the primal roots took 11 / 9 / 15 / 10 / 11 pivots more, knap24-strong's
#: 16 pricing passes 32 one flip at a time).
_INSTANCES = [
    ("knap16", generate_knapsack(16, seed=4), 200_000, (48, 48, 48), (18, 18, 18)),
    ("knap18", generate_knapsack(18, seed=6), 200_000, (29, 29, 29), (7, 7, 7)),
    (
        "knap24-strong", generate_knapsack(24, seed=1, correlation="strong"),
        3000, (1033, 1018, 1018), (1014, 999, 999),
    ),
    (
        "random-8x5",
        generate_random_mip(8, 5, seed=3, integer_fraction=0.5, bound=4.0),
        200_000, (1, 2, 2), (1, 2, 2),
    ),
    ("random-10x6", generate_random_mip(10, 6, seed=1), 200_000, (39, 67, 67), (38, 64, 64)),
]


class TestOneDriver:
    @pytest.mark.parametrize(
        "rules, problem, node_limit, nodes, lp_iterations, one_flip_iterations",
        [
            pytest.param(_PINNED, problem, limit, *pinned, id=name)
            for name, problem, limit, pinned, _ in _INSTANCES
        ]
        + [
            pytest.param({}, problem, limit, *default, id=f"{name}-default")
            for name, problem, limit, _, default in _INSTANCES
        ],
    )
    def test_width_one_is_the_plain_driver(
        self, rules, problem, node_limit, nodes, lp_iterations, one_flip_iterations
    ):
        options = SolverOptions(node_limit=node_limit, keep_tree=True, **rules)
        with one_flip_loop():
            one_flip = BranchAndBoundSolver(problem, options).solve()
        assert one_flip.stats.nodes_processed == nodes
        assert one_flip.stats.lp_iterations == one_flip_iterations
        plain = BranchAndBoundSolver(problem, options).solve()
        round1 = BranchAndBoundSolver(
            problem, options, engine=BatchedRoundEngine(1)
        ).solve()
        assert plain.stats.nodes_processed == nodes
        assert plain.stats.lp_iterations == lp_iterations
        assert round1.status is plain.status
        assert repr(round1.objective) == repr(plain.objective)
        assert repr(round1.best_bound) == repr(plain.best_bound)
        counters = lambda stats: {
            name: value
            for name, value in dataclasses.asdict(stats).items()
            if isinstance(value, int)
        }
        assert counters(round1.stats) == counters(plain.stats)
        assert round1.stats.incumbent_history == plain.stats.incumbent_history
        tags = lambda tree: [(n.node_id, n.tag, n.branch_var) for n in tree.nodes()]
        assert tags(round1.tree) == tags(plain.tree)

    def test_width_four_resumes_exactly_after_node_kills(self):
        # knapsack-12/s7 closes under the caller's rules before the first
        # kill lands on a checkpointed search; knapsack-16/s4 restarts 13 times.
        problem = generate_knapsack(16, seed=4)
        expected, _ = knapsack_dp_optimal(problem)
        solver = BatchedNodeSolver(
            problem,
            SolverOptions(checkpoint_every=2, checkpoint_fn=lambda snapshot: None),
            batch_size=4,
        )
        plan = FaultPlan(
            seed=0,
            scheduled=tuple(
                ScheduledFault(site=SITE_NODE, at=at) for at in range(2, 400, 3)
            ),
        )
        with injecting(plan) as injector:
            result, stats = solve_with_checkpoint_resume(
                problem, solver_options=solver.options, engine=solver.engine
            )
            assert injector.clean
        assert stats.restarts > 0 and stats.checkpoints > 0
        assert result.status is MIPStatus.OPTIMAL
        assert result.objective == expected

    def test_width_four_emits_the_driver_spans(self):
        solver = BatchedNodeSolver(generate_knapsack(12, seed=7), batch_size=4)
        with obs.tracing() as tracer:
            res = solver.solve()
        (root,) = tracer.find("mip.solve")
        assert root.attrs["nodes"] == res.stats.nodes_processed
        nodes = tracer.find("mip.node")
        assert all(s.parent_id == root.span_id for s in nodes)
        solved = [s for s in nodes if "bound" in s.attrs or s.attrs["tag"] == "infeasible"]
        assert len(solved) == res.stats.nodes_processed
        assert len({s.attrs["node"] for s in nodes}) == len(nodes)

    def test_width_four_runs_the_rounding_heuristic(self):
        """The serve path's width-k driver runs the caller's rules: under
        the default options the rounding heuristic finds incumbents, as it
        does at width 1 (it was pinned off before)."""
        problem = generate_knapsack(16, seed=4)
        expected, _ = knapsack_dp_optimal(problem)
        report = solve(problem, SolveOptions(device=Device(V100), mip_node_batch=4))
        assert report.strategy == "batched_node"
        assert report.objective == expected
        assert report.result.stats.heuristic_solutions == 3
