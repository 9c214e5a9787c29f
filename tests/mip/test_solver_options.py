"""The branch-and-cut driver prints nothing."""

from repro.mip.solver import BranchAndBoundSolver, SolverOptions
from repro.problems.setcover import generate_set_cover


class TestLogging:
    def test_silent_by_default(self, capsys):
        p = generate_set_cover(8, 16, seed=2)
        BranchAndBoundSolver(p, SolverOptions()).solve()
        assert capsys.readouterr().out == ""
