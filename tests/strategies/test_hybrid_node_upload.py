"""``hybrid`` ships a node only to the side that solves it.

``begin_node`` uploads the node's bounds and basis list (256 bytes over
the link) — when the LPs run on the GPU.  On a CPU path the GPU is not
solving them, and its clock used to be nothing but those uploads: 10 µs
a node, the floor the whole makespan sat on.
"""

import pytest

from repro.mip.solver import BranchAndBoundSolver, SolverOptions
from repro.problems.knapsack import generate_knapsack
from repro.strategies.chooser import PathChoice
from repro.strategies.hybrid import HybridEngine


def solve(problem):
    engine = HybridEngine()
    result = BranchAndBoundSolver(problem, SolverOptions(), engine=engine).solve()
    return engine, result


def test_a_cpu_path_uploads_the_matrix_and_nothing_per_node():
    engine, result = solve(generate_knapsack(24, seed=2, correlation="strong"))
    assert engine.path is PathChoice.DENSE_CPU and result.stats.nodes_processed > 50
    assert engine.device.metrics.count("transfers.h2d") == 1  # begin_search's
    assert engine.device.kernel_count() == 0
    # The makespan is the CPU's: it does all the work.
    assert engine.elapsed_seconds == engine.cpu.clock.now > engine.device.clock.now


@pytest.mark.parametrize("path", list(PathChoice), ids=lambda p: p.value)
def test_a_node_crosses_the_link_only_on_a_gpu_path(path):
    engine = HybridEngine()
    engine.path = path
    for node_id in range(5):
        engine.begin_node(node_id, 1)
    on_gpu = path in (PathChoice.DENSE_GPU, PathChoice.SPARSE_GPU)
    assert engine.device.metrics.count("transfers.h2d") == (5 if on_gpu else 0)
    assert engine.device.metrics.count("transfers.h2d_bytes") == (5 * 256 if on_gpu else 0)
    assert engine.cpu.metrics.count("transfers.h2d") == 0
