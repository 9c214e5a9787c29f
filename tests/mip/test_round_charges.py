"""Executed = charged, one level up: a round launches what its members ran.

``BatchedRoundEngine._simplex_round`` solves each member through a
:class:`KernelTape` and then launches the tapes merged: lockstep by
pivot, one batched kernel per group of members whose next kernel is the
same.  Held here: over rounds with warm and cold members side by side,
every recorded kernel sits in exactly one launch and no launch is empty
of members; a round of one is its member's stream, launch for launch —
so the width-1 search's clock is what one metered node stream costs.
Between rounds the search loop's reduced-cost fixing launches its own pass,
once per node that branches with an incumbent, and a node's cut re-solves
launch their dual-simplex stream after shipping the round's rows.  After
a round that branched, its children's boxes are propagated as one stack:
one launch per pass that ran, and nothing after a round that did not.
"""

from collections import Counter

import numpy as np
import pytest

from repro.device import kernels as K
from repro.device.gpu import Device
from repro.device.spec import V100
from repro.lp.dual_simplex import dual_simplex_resolve
from repro.lp.result import LPStatus
from repro.lp.simplex import NULL_HOOK
from repro.lp.warm import WarmStartState, solve_warm_or_cold, warm_resolve
from repro.mip import solver as solver_module
from repro.mip.batch_solver import BatchedNodeSolver, BatchedRoundEngine
from repro.mip.propagation import Propagator
from repro.mip.result import MIPStatus
from repro.mip.solver import BranchAndBoundSolver, ExecutionEngine, SolverOptions
from repro.problems.knapsack import generate_knapsack
from repro.problems.random_mip import generate_random_mip
from repro.strategies.engine import DeviceCostHook, KernelTape


def kind(cost):
    """The kernel class, batched or not (a fused launch: its parts')."""
    return "+".join(part.removeprefix("batched_") for part in cost.name.split("+"))


@pytest.fixture
def ledger(monkeypatch):
    """What the members' tapes recorded, and what the round launched."""
    book = {"recorded": [], "launched": []}
    tape_charge, batched = KernelTape._charge, K.batched_kernel

    def record(self, cost, stream):
        book["recorded"].append(cost)
        return tape_charge(self, cost, stream)

    def launch(cost, batch):
        book["launched"].append((cost, batch, batched(cost, batch)))
        return book["launched"][-1][-1]

    monkeypatch.setattr(KernelTape, "_charge", record)
    monkeypatch.setattr(K, "batched_kernel", launch)
    return book


def spy_propagation(monkeypatch, events):
    """Append ``("propagation", k, m, n, passes run, kernels launched)``
    to ``events`` at every propagator call; a pass runs ``_slack`` once."""
    call, slack = Propagator.__call__, Propagator._slack
    ran = []

    def slack_spy(self, *args):
        ran.append(None)
        return slack(self, *args)

    def call_spy(self, lb, ub, hook=NULL_HOOK):
        ran.clear()
        before = hook.device.kernel_count()
        out = call(self, lb, ub, hook)
        launched = hook.device.kernel_count() - before
        events.append(("propagation", len(lb), self.m, self.n, len(ran), launched))
        return out

    monkeypatch.setattr(Propagator, "_slack", slack_spy)
    monkeypatch.setattr(Propagator, "__call__", call_spy)


def replay(events, device):
    """Charge a width-1 search's recorded events one by one on ``device``."""
    hook = DeviceCostHook(device)
    for event in events:
        if event[0] == "round":
            ((_, sf, warm),) = event[1]
            solve_warm_or_cold(sf, warm, hook)
        elif event[0] == "fix":
            _, _, m, n, priced = event
            if priced:
                hook.on_pricing(m, n, n)
            else:
                hook.on_vector_pass(n)
        elif event[0] == "propagation":
            _, k, m, n, passes, _ = event
            for _ in range(passes):
                hook.on_propagation(k, m, n)
    device.synchronize()


def mixed_round(problem, width, seed):
    """``width`` children of one solved root: some warm on its live state
    (inverse + iterate), some on its basis alone, some cold."""
    lp = problem.relaxation()
    root = lp.to_standard_form()
    cold = solve_warm_or_cold(root, None).result
    live = warm_resolve(root, WarmStartState.from_result(root, cold)).result.warm
    bare = WarmStartState(basis=cold.basis, shape=(root.m, root.n))
    x = root.recover_x(cold.x_standard)
    rng = np.random.default_rng(seed)
    members = []
    for i in range(width):
        var = int(rng.integers(problem.n))
        child_lp = (
            lp.with_bounds(var, ub=np.floor(x[var]))
            if rng.random() < 0.5
            else lp.with_bounds(var, lb=np.ceil(x[var]))
        )
        warm = (live, bare, None)[i % 3]
        members.append((child_lp, root.rebounded(child_lp), warm))
    return members


@pytest.mark.parametrize("width", [4, 16])
@pytest.mark.parametrize(
    "problem",
    [
        generate_knapsack(18, seed=6),
        generate_random_mip(12, 6, seed=2, integer_fraction=1.0),
        generate_random_mip(10, 5, seed=5, integer_fraction=1.0, bound=3.0),
    ],
    ids=["knap18", "rand-12x6", "rand-10x5"],
)
def test_a_round_launches_each_recorded_kernel_exactly_once(ledger, problem, width):
    engine = BatchedRoundEngine(width)
    for seed in range(3):
        ledger["recorded"].clear(), ledger["launched"].clear()
        before = engine.device.kernel_count()
        solved = engine.solve_round(mixed_round(problem, width, seed))
        assert len(solved) == width
        statuses = {solve.result.status for solve in solved}
        assert statuses <= {LPStatus.OPTIMAL, LPStatus.INFEASIBLE}
        # Every kernel a member ran is in exactly one launch, at its own
        # shape; every launch holds 1..width members.
        launched, by_kind = Counter(), Counter()
        for cost, batch, kernel in ledger["launched"]:
            assert 1 <= batch <= width
            assert (kernel == cost) == (batch == 1)
            launched[cost] += batch
            by_kind[kind(kernel)] += batch
        assert launched == Counter(ledger["recorded"])
        assert by_kind == Counter(kind(cost) for cost in ledger["recorded"])
        assert engine.device.kernel_count() - before == len(ledger["launched"])
        # Warm siblings share launches; nobody's work is launched twice.
        assert max(batch for _, batch, _ in ledger["launched"]) > 1
        assert len(ledger["launched"]) < len(ledger["recorded"])
        # A bare basis is inverted (getrf + getri), and so is a cold
        # member's slack basis: it runs the dual loop beside its warm
        # siblings.
        bare, cold = len(range(1, width, 3)), len(range(2, width, 3))
        assert by_kind["getri"] == by_kind["getrf"] == bare + cold


def test_a_batch_of_one_is_the_kernel_itself():
    cost = K.gemv_kernel(9, 9)
    assert K.batched_kernel(cost, 1) == cost
    four = K.batched_kernel(cost, 4)
    assert four.name == "batched_gemv" and four.serial_depth == cost.serial_depth
    assert (four.flops, four.bytes_moved, four.parallel_elements) == (
        4 * cost.flops, 4 * cost.bytes_moved, 4 * cost.parallel_elements
    )
    # One launch for four is cheaper than four launches, never cheaper
    # than one (equal while the device is launch-bound).
    assert cost.duration(V100) <= four.duration(V100) < 4 * cost.duration(V100)


@pytest.mark.parametrize(
    "problem",
    [generate_knapsack(16, seed=4), generate_random_mip(10, 6, seed=1)],
    ids=["knap16", "rand-10x6"],
)
def test_width_one_costs_what_its_node_streams_cost(monkeypatch, problem):
    """The width-1 search's clock = the same members charged one by one
    through ``DeviceCostHook`` on the same spec, after the one upload,
    with each fixing pass and each branching pair's propagation passes
    where they ran."""
    events = []
    solve_round = BatchedRoundEngine.solve_round
    fix = BranchAndBoundSolver._fix_by_reduced_cost

    def spy(self, members):
        events.append(("round", members))
        return solve_round(self, members)

    def fix_spy(self, node, sf, res, incumbent, columns):
        fix(self, node, sf, res, incumbent, columns)
        priced = res.warm is None or res.warm.iterate is None
        events.append(("fix", node.node_id, sf.m, sf.n, priced))

    monkeypatch.setattr(BatchedRoundEngine, "solve_round", spy)
    monkeypatch.setattr(BranchAndBoundSolver, "_fix_by_reduced_cost", fix_spy)
    spy_propagation(monkeypatch, events)
    solver = BatchedNodeSolver(problem, batch_size=1)
    result = solver.solve()
    rounds = [event[1] for event in events if event[0] == "round"]
    assert all(len(members) == 1 for members in rounds)
    assert len(rounds) == solver.rounds == result.stats.nodes_processed > 10
    propagations = [event for event in events if event[0] == "propagation"]
    assert propagations and all(
        k == 2 and launched == passes > 0 for _, k, _, _, passes, launched in propagations
    )

    device = Device(V100)
    device.upload(rounds[0][0][1].a)
    replay(events, device)
    assert device.clock.now == solver.device.clock.now
    assert device.busy_seconds == solver.device.busy_seconds
    assert device.kernel_count() == solver.device.kernel_count()
    # Nothing is batched at width 1, and no primal runs: each root is
    # the dual loop from its slack basis (a primal flip-run block would
    # be a trsm pair, an eta chain and a gemm).  Only the root inverts,
    # its slack basis; its children pivot on the inverse it leaves.
    assert not any("batched" in name for name in solver.device.metrics.counters)
    assert device.metrics.count("kernels.trsm") == 0
    assert device.metrics.count("kernels.getri") == 1


@pytest.mark.parametrize("width", [1, 4])
@pytest.mark.parametrize(
    "problem",
    [
        generate_knapsack(18, seed=3, correlation="strong"),
        generate_random_mip(12, 6, seed=2, integer_fraction=1.0),
    ],
    ids=["knap18-strong", "rand-12x6"],
)
def test_fixing_is_charged_once_per_eligible_node(monkeypatch, problem, width):
    """Reduced-cost fixing launches one kernel at every node that branches
    with an incumbent in hand — its n-vector pass, in the epilogue of the
    pricing GEMV where the solve carried no iterate — and nothing at any
    other node.  A round that branched propagates its 2·(branchings)
    children as one stack, one launch per pass that ran; a round that did
    not propagates nothing.  At width 1 the search's clock is its
    members' streams with those launches interleaved where they ran."""
    events, branched = [], []
    engine = BatchedRoundEngine(width)
    device = engine.device
    solve_round = BatchedRoundEngine.solve_round
    fix = BranchAndBoundSolver._fix_by_reduced_cost
    make_branching = solver_module.make_branching

    def round_spy(self, members):
        events.append(("round", members))
        return solve_round(self, members)

    def fix_spy(self, node, sf, res, incumbent, columns):
        counts = lambda: (
            device.kernel_count(),
            device.metrics.count("kernels.axpy"),
            device.metrics.count("kernels.gemv+axpy"),
        )
        before = counts()
        fix(self, node, sf, res, incumbent, columns)
        priced = res.warm is None or res.warm.iterate is None
        after = counts()
        assert np.isfinite(incumbent) and res.basis is not None
        assert after[0] - before[0] == 1
        assert (after[1] - before[1], after[2] - before[2]) == (1 - priced, int(priced))
        events.append(("fix", node.node_id, sf.m, sf.n, priced))

    def branching_spy(name):
        rule = make_branching(name)
        select = rule.select

        def spy(fractional, x, bound, probe=None):
            if solver.stats.incumbent_history:
                branched.append(len(events))
            events.append(("select",))
            return select(fractional, x, bound, probe=probe)

        rule.select = spy
        return rule

    monkeypatch.setattr(BatchedRoundEngine, "solve_round", round_spy)
    monkeypatch.setattr(BranchAndBoundSolver, "_fix_by_reduced_cost", fix_spy)
    monkeypatch.setattr(solver_module, "make_branching", branching_spy)
    spy_propagation(monkeypatch, events)
    solver = BranchAndBoundSolver(problem, SolverOptions(), engine=engine)
    result = solver.solve()
    assert result.status is MIPStatus.OPTIMAL
    # An eligible node is one that branches with an incumbent: its fixing
    # ran right before the rule picked the variable, and no other did.
    fixes = [i for i, event in enumerate(events) if event[0] == "fix"]
    assert len(fixes) > 5 and [i + 1 for i in fixes] == branched
    # Round by round: one propagation of every child iff a node branched.
    starts = [i for i, event in enumerate(events) if event[0] == "round"]
    for start, end in zip(starts, starts[1:] + [len(events)]):
        names = [event[0] for event in events[start:end]]
        selects = names.count("select")
        assert names.count("propagation") == (selects > 0)
        if selects:
            _, k, m, n, passes, launched = events[end - 1]
            assert (k, m, n) == (2 * selects, problem.a_ub.shape[0], problem.n)
            assert launched == passes > 0
    if width > 1:
        return
    device_replay = Device(V100)
    device_replay.upload(events[0][1][0][1].a)
    replay(events, device_replay)
    assert device_replay.clock.now == device.clock.now
    assert device_replay.kernel_count() == device.kernel_count()


def kernel_counts(device):
    counters = device.metrics.to_dict()["counters"]
    return Counter({k: v for k, v in counters.items() if k.startswith("kernels.")})


def test_cut_resolves_are_charged_on_the_round_device(monkeypatch):
    """Every cut re-solve of a width-k search launches its dual-simplex
    stream on the round engine's device, kernel for kernel, after its
    round's rows cross the link (the matrix is already resident)."""
    problem = generate_random_mip(12, 8, seed=2, integer_fraction=1.0)
    resolves, shipped = [], []
    ship_cuts, solve_relaxation = BatchedRoundEngine.ship_cuts, ExecutionEngine.solve_relaxation

    def links(engine):
        metrics = engine.device.metrics
        return metrics.count("transfers.h2d"), metrics.count("transfers.h2d_bytes")

    # The seam: a cut round ships its rows, then re-solves the grown form
    # through solve_relaxation from the bordered basis (at width k the
    # round's node LPs go through solve_round, so every unprobed
    # solve_relaxation is a cut re-solve).
    def ship_spy(self, cut_bytes):
        shipped.append((cut_bytes, kernel_counts(self.device), links(self)))
        ship_cuts(self, cut_bytes)

    def solve_spy(self, sf, warm=None, probe=False):
        solved = solve_relaxation(self, sf, warm, probe)
        if not probe:
            cut_bytes, kernels, sent = shipped.pop()
            moved = tuple(after - before for after, before in zip(links(self), sent))
            launched = kernel_counts(self.device) - kernels
            resolves.append((sf, warm, cut_bytes, launched, moved))
        return solved

    monkeypatch.setattr(BatchedRoundEngine, "ship_cuts", ship_spy)
    monkeypatch.setattr(ExecutionEngine, "solve_relaxation", solve_spy)
    solver = BatchedNodeSolver(problem, SolverOptions(cut_rounds=2), batch_size=4)
    result = solver.solve()
    assert result.status is MIPStatus.OPTIMAL
    assert not shipped
    assert len(resolves) == result.stats.cut_rounds > 10
    for sf_grown, bordered, cut_bytes, launched, moved in resolves:
        replay = Device(V100)
        # No bordered basis is refused: every re-solve is the dual's.
        dual_simplex_resolve(sf_grown, bordered, hook=DeviceCostHook(replay))
        assert launched == kernel_counts(replay) and launched["kernels.total"] > 0
        assert moved == (1, cut_bytes)
