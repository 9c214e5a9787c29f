"""One root relaxation per search (DESIGN.md "One root relaxation").

A ``heuristic_first`` search solves node 0 through the engine's round
path and hands that answer to the portfolio, whose LPs then start warm
from it; node 0 consumes the same answer.  Pinned here:

- the root relaxation is solved exactly once per search (a standalone
  portfolio still solves its own, once);
- sharing the root moves no tree: on ``tree-portfolio``'s seed-0 inputs
  the nodes, status, objective, best bound and incumbent trail are the
  ones the search read when the portfolio solved a root of its own;
- the hand-off is causal under ``hybrid``: the portfolio's GPU starts
  from a root the host cores solved only once they have solved it and
  its point and basis have crossed the link, so its first incumbent
  lands no earlier than that — and on a one-device engine the hand-off
  costs nothing.
"""

import numpy as np
import pytest

from repro.api import SolveOptions, solve
from repro.lp import dual_simplex, simplex
from repro.mip.portfolio import PortfolioOptions, run_portfolio
from repro.mip.solver import SolverOptions
from repro.problems.knapsack import generate_knapsack
from repro.problems.random_mip import generate_random_mip
from repro.strategies.hybrid import HybridEngine

SMALL = PortfolioOptions(
    restarts=8, n_jobs=4, fj_sweeps=40, lns_rounds=1, lns_node_limit=40
)

#: ``tree-portfolio`` seed 0 (``api.solve(hybrid, heuristic_first,
#: node_limit=150)``), as read before the root was shared: status,
#: nodes, objective, best bound, incumbent trail (node, objective).
#: rand-16x10-s4's best bound moved one ulp (…066p+4 → …067p+4) when
#: the cold root began the dual loop from its slack basis: the root's
#: bound is summed from another vertex arithmetic (…bb75 → …bb7b), and
#: its warm descendants carry that iterate down to the best open leaf.
RECORDED = {
    "knap-strong-28-s4": (
        "optimal", 7, "0x1.f4fd126ba216cp+9", "0x1.f4fd126ba216cp+9",
        [(0, "0x1.f47bd897da755p+9"), (3, "0x1.f4fd126ba216cp+9")],
    ),
    "rand-16x10-s4": (
        "node_limit", 150, "0x1.ae1138eef92f4p+4", "0x1.b551a271cd067p+4",
        [(0, "0x1.a9a9f68b0100ep+4"), (17, "0x1.ae1138eef92f4p+4")],
    ),
}


def root_solves(monkeypatch, problem) -> list:
    """Record every LP solved on ``problem``'s root box, cold or warm."""
    root = problem.relaxation().to_standard_form()
    seen = []

    def is_root(sf) -> bool:
        return (
            sf.a.shape == root.a.shape
            and np.array_equal(sf.b, root.b)
            and np.array_equal(sf.upper, root.upper)
        )

    for module, name in (
        (simplex, "_solve_standard_form"),
        (dual_simplex, "_dual_simplex_resolve"),
    ):
        real = getattr(module, name)

        def spy(sf, *args, _real=real, _name=name):
            if is_root(sf):
                seen.append(_name)
            return _real(sf, *args)

        monkeypatch.setattr(module, name, spy)
    return seen


class TestOneRootSolve:
    @pytest.mark.parametrize("strategy", ["direct", "hybrid", "portfolio"])
    def test_heuristic_first_solves_its_root_once(self, monkeypatch, strategy):
        problem = generate_knapsack(20, seed=3, correlation="strong")
        seen = root_solves(monkeypatch, problem)
        report = solve(
            problem,
            SolveOptions(
                strategy=strategy, mode="heuristic_first", portfolio=SMALL,
                solver=SolverOptions(node_limit=100),
            ),
        )
        assert report.result.stats.portfolio_incumbents >= 1
        # A cold root is the dual loop from its slack basis.
        assert seen == ["_dual_simplex_resolve"]

    def test_standalone_portfolio_solves_its_own_root_once(self, monkeypatch):
        problem = generate_knapsack(20, seed=3, correlation="strong")
        seen = root_solves(monkeypatch, problem)
        result = run_portfolio(problem, SMALL)
        assert result.relaxation_status == "optimal"
        assert seen == ["_dual_simplex_resolve"]


class TestSameTree:
    @pytest.mark.parametrize("name", sorted(RECORDED))
    def test_tree_portfolio_seed0_inputs_keep_their_trees(self, name):
        from perf.workloads import TreePortfolio

        (problem,) = [
            p for p in TreePortfolio().build(0).problems.values() if p.name == name
        ]
        report = solve(
            problem,
            SolveOptions(
                strategy="hybrid", mode="heuristic_first",
                solver=SolverOptions(node_limit=150),
            ),
        )
        status, nodes, objective, bound, trail = RECORDED[name]
        stats = report.result.stats
        assert report.status == status
        assert report.nodes == nodes
        assert report.objective.hex() == objective
        assert report.best_bound.hex() == bound
        assert [(n, obj.hex()) for n, obj in stats.incumbent_history] == trail


def _hand_off(monkeypatch, problem):
    """Solve ``problem`` under ``hybrid`` + portfolio; what the hand-off saw."""
    seen = {}
    real = HybridEngine.hand_off_root

    def spy(engine, result):
        link = engine.device.transfers
        seen["root_done"] = engine.cpu.clock.now
        seen["gpu_before"] = engine.device.clock.now
        seen["on_gpu"] = engine._lps_on_gpu()
        crossings = seen["crossings"] = []
        move = link.host_to_device
        link.host_to_device = lambda nbytes: crossings.append(move(nbytes)) or crossings[-1]
        try:
            real(engine, result)
        finally:
            del link.host_to_device
        seen["gpu_after"] = engine.device.clock.now

    monkeypatch.setattr(HybridEngine, "hand_off_root", spy)
    report = solve(
        problem,
        SolveOptions(
            strategy="hybrid", mode="heuristic_first", portfolio=SMALL,
            solver=SolverOptions(node_limit=50),
        ),
    )
    assert not seen["on_gpu"]  # the root ran on the host cores
    (transfer,) = seen["crossings"]  # its point and basis cross once
    assert transfer > 0.0
    # The GPU starts from the root once both it and the root are ready,
    # then pays the crossing: bit for bit the clock's own arithmetic.
    assert seen["gpu_after"] == max(seen["gpu_before"], seen["root_done"]) + transfer
    first = report.metrics["portfolio"]["first_incumbent_seconds"]
    assert first >= seen["gpu_after"]
    return seen


class TestCausalHandOff:
    def test_gpu_portfolio_waits_for_the_host_root_and_its_transfer(
        self, monkeypatch
    ):
        # A root of many pivots: the host finishes it after the V100 has
        # its matrix, so the GPU waits for it.
        seen = _hand_off(monkeypatch, generate_random_mip(30, 20, seed=1, integer_fraction=1.0))
        assert seen["root_done"] > seen["gpu_before"]

    def test_a_gpu_still_uploading_pays_only_the_transfer(self, monkeypatch):
        # rand-16x10-s4's root is done on the host (9.3 µs) before the V100
        # has its matrix (10.2 µs): nothing to wait for.
        seen = _hand_off(monkeypatch, generate_random_mip(16, 10, seed=4, integer_fraction=1.0))
        assert seen["root_done"] < seen["gpu_before"]

    def test_one_device_hand_off_is_free(self, monkeypatch):
        from repro.strategies.engine import MeteredEngine

        seen = []
        real = MeteredEngine.hand_off_root

        def spy(engine, result):
            before = (engine.device.clock.now, engine.device.transfers.total_transfers)
            real(engine, result)
            seen.append(
                (engine.device.clock.now, engine.device.transfers.total_transfers)
                == before
            )

        monkeypatch.setattr(MeteredEngine, "hand_off_root", spy)
        solve(
            generate_knapsack(20, seed=3, correlation="strong"),
            SolveOptions(
                strategy="cpu_orchestrated", mode="heuristic_first",
                portfolio=SMALL, solver=SolverOptions(node_limit=50),
            ),
        )
        assert seen == [True]
