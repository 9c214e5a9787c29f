"""Root probing in the branch-and-cut driver; the driver prints nothing."""

import numpy as np
import pytest

from repro.mip.problem import MIPProblem
from repro.mip.result import MIPStatus
from repro.mip.solver import BranchAndBoundSolver, SolverOptions
from repro.problems.setcover import generate_set_cover


class TestProbeRoot:
    def test_probing_preserves_optimum(self):
        p = generate_set_cover(8, 16, seed=3)
        plain = BranchAndBoundSolver(p, SolverOptions()).solve()
        probed = BranchAndBoundSolver(p, SolverOptions(probe_root=True)).solve()
        assert probed.status is MIPStatus.OPTIMAL
        assert probed.objective == pytest.approx(plain.objective, abs=1e-6)

    def test_probing_detects_root_infeasibility(self):
        p = MIPProblem(
            c=[1.0],
            integer=np.array([True]),
            a_ub=[[1.0], [-1.0]],
            b_ub=[0.4, -0.6],
            ub=[1.0],
        )
        res = BranchAndBoundSolver(p, SolverOptions(probe_root=True)).solve()
        assert res.status is MIPStatus.INFEASIBLE
        # Probing proves it without a single LP.
        assert res.stats.nodes_processed == 0

    def test_probing_fixes_forced_variables(self):
        # x0 >= 1 (binary) forces x1 = 0 via x0 + x1 <= 1.
        p = MIPProblem(
            c=[2.0, 1.0],
            integer=np.array([True, True]),
            a_ub=[[1.0, 1.0], [-1.0, 0.0]],
            b_ub=[1.0, -1.0],
            ub=np.ones(2),
        )
        solver = BranchAndBoundSolver(p, SolverOptions(probe_root=True))
        res = solver.solve()
        assert res.objective == pytest.approx(2.0)
        assert solver.problem.ub[1] == 0.0  # tightened by probing


class TestLogging:
    def test_silent_by_default(self, capsys):
        p = generate_set_cover(8, 16, seed=2)
        BranchAndBoundSolver(p, SolverOptions()).solve()
        assert capsys.readouterr().out == ""
