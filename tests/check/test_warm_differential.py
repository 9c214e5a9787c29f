"""The warm-vs-cold differential lanes and their fuzz/replay plumbing.

The LP lane is ``differential_warm_lp``.  The MIP lane is two rows of
``differential_mip``: ``bb/best_first+pseudocost`` (warm, run twice and
compared bit for bit) against ``bb/cold_nodes``.  Green over the
standard differential corpus (random MIPs + knapsacks) and the 14-case
pathological corpus; contrived disagreements and determinism breaks must
be flagged; the fuzz harness shrinks and saves a replayable
``differential`` repro when the lane fails.
"""

import numpy as np
import pytest

from repro.check import differential_mip, differential_warm_lp, replay_repro, run_fuzz
from repro.check import differential as differential_mod
from repro.check.differential import _MIP_CONFIGS, DifferentialReport
from repro.check.fuzz import FuzzOptions
from repro.check.serialize import save_repro
from repro.errors import ReproError
from repro.lp.problem import LinearProgram
from repro.mip.problem import MIPProblem
from repro.problems.knapsack import generate_knapsack
from repro.problems.pathological import pathological_corpus
from repro.problems.random_mip import generate_random_mip

_WARM_COLD = ("bb/best_first+pseudocost", "bb/cold_nodes")


@pytest.fixture
def warm_vs_cold(monkeypatch):
    """``differential_mip`` cut down to the warm/cold pair and its
    determinism re-run: no other configuration, strategy or HiGHS."""
    monkeypatch.setattr(
        differential_mod, "_MIP_CONFIGS", tuple(c for c in _MIP_CONFIGS if c[0] in _WARM_COLD)
    )
    monkeypatch.setattr(differential_mod, "milp", None)

    def lane(problem, **kwargs):
        return differential_mip(problem, strategies=(), **kwargs)

    return lane


class TestWarmLPLane:
    def test_green_on_random_relaxations(self):
        for seed in range(3):
            lp = generate_random_mip(6, 4, seed=seed, density=0.8).relaxation()
            report = differential_warm_lp(lp, seed=seed)
            assert report.ok, report.disagreements
            names = [r.name for r in report.runs]
            assert "cold[base]" in names and "warm[base]" in names

    def test_base_pair_is_zero_pivot(self):
        # Warm from its own optimal basis: dual feasible, no work left.
        lp = generate_knapsack(10, seed=2).relaxation()
        report = differential_warm_lp(lp, perturbations=0)
        assert report.ok
        assert [r.name for r in report.runs] == ["cold[base]", "warm[base]"]

    def test_perturbed_pairs_compared_per_instance(self):
        lp = generate_knapsack(12, seed=4).relaxation()
        report = differential_warm_lp(lp, perturbations=4, seed=1)
        assert report.ok, report.disagreements
        # base pair + 4 perturbed pairs, cold and warm each.
        assert len(report.runs) == 10


class TestWarmMIPLane:
    def test_green_on_differential_corpus(self, warm_vs_cold):
        for seed in range(3):
            problem = generate_random_mip(6, 4, seed=seed, density=0.7)
            report = warm_vs_cold(problem)
            assert report.ok, report.disagreements
        report = warm_vs_cold(generate_knapsack(12, seed=5))
        assert report.ok, report.disagreements
        assert [r.name for r in report.runs] == list(_WARM_COLD)

    def test_green_on_pathological_corpus(self, warm_vs_cold):
        # The warm lane must never *introduce* a disagreement, even on
        # the adversarial corpus — cases the solver rejects outright
        # (NaN/Inf inputs) must reject identically warm and cold.
        checked = 0
        corpus = pathological_corpus()
        assert len(corpus) == 14
        for case in corpus:
            problem = case.build()
            if isinstance(problem, LinearProgram):
                try:
                    report = differential_warm_lp(problem, perturbations=1)
                except (ReproError, ValueError, FloatingPointError):
                    continue  # rejected before any lane ran: nothing to compare
            elif isinstance(problem, MIPProblem):
                try:
                    report = warm_vs_cold(problem, node_limit=500)
                except (ReproError, ValueError, FloatingPointError):
                    continue
            else:  # pragma: no cover - corpus holds only LPs and MIPs
                continue
            checked += 1
            assert report.ok, (case.name, report.disagreements)
        assert checked >= 8  # most of the corpus actually exercises the lane

    def test_mip_configs_include_a_cold_lane(self):
        names = [cfg[0] for cfg in _MIP_CONFIGS]
        assert "bb/cold_nodes" in names
        warm_flags = {cfg[0]: cfg[5] for cfg in _MIP_CONFIGS}
        assert warm_flags["bb/cold_nodes"] is False
        assert warm_flags["bb/best_first+pseudocost"] is True
        # The first configuration is the warm one the determinism re-run repeats.
        assert _MIP_CONFIGS[0][0] == "bb/best_first+pseudocost"

    def test_cold_lane_runs_inside_differential_mip(self):
        problem = generate_random_mip(5, 3, seed=2, density=0.7)
        report = differential_mip(problem, strategies=())
        assert report.ok, report.disagreements
        assert "bb/cold_nodes" in [r.name for r in report.runs]

    def test_determinism_break_is_flagged(self, monkeypatch, warm_vs_cold):
        # Inject run-to-run jitter into the re-run of the first
        # configuration, which follows every configuration's own run.
        from repro.mip import solver as solver_mod

        problem = generate_knapsack(10, seed=6)
        real_solve = solver_mod.BranchAndBoundSolver.solve
        rerun = len(differential_mod._MIP_CONFIGS) + 1
        calls = {"n": 0}

        def jittery(self):
            result = real_solve(self)
            calls["n"] += 1
            if calls["n"] == rerun:  # the re-run only: nondeterminism
                result.stats.nodes_processed += 1
            return result

        monkeypatch.setattr(solver_mod.BranchAndBoundSolver, "solve", jittery)
        report = warm_vs_cold(problem)
        assert not report.ok
        (determinism,) = report.disagreements
        assert determinism.kind == "determinism"
        assert determinism.right == "bb/best_first+pseudocost#2"

    def test_objective_disagreement_is_flagged(self, monkeypatch, warm_vs_cold):
        from repro.mip import solver as solver_mod

        problem = generate_knapsack(10, seed=7)
        real_solve = solver_mod.BranchAndBoundSolver.solve

        def skewed(self):
            result = real_solve(self)
            if not self.options.warm_start:  # cold lane lies
                result.objective += 1.0
            return result

        monkeypatch.setattr(solver_mod.BranchAndBoundSolver, "solve", skewed)
        report = warm_vs_cold(problem)
        assert not report.ok
        kinds = {d.kind for d in report.disagreements}
        assert "objective" in kinds


class TestWarmFuzzLane:
    """The warm-vs-cold pair reaches ``repro fuzz`` as ``differential``."""

    def _options(self, tmp_path, **overrides):
        defaults = dict(
            budget=3,
            seed=0,
            lp_differential=False,
            metamorphic=False,
            max_vars=5,
            max_rows=4,
            out_dir=str(tmp_path),
        )
        defaults.update(overrides)
        return FuzzOptions(**defaults)

    def test_warm_checks_counted_on_clean_run(self, tmp_path, warm_vs_cold):
        report = run_fuzz(self._options(tmp_path))
        assert report.checks["differential"] == 3
        assert report.total_checks >= report.checks["differential"]
        assert not report.failures

    def test_warm_disagreement_shrinks_to_replayable_repro(
        self, tmp_path, monkeypatch
    ):
        # Break the lane itself (deterministically): every differential
        # run reports a fabricated warm-vs-cold objective disagreement,
        # so the shrinker's predicate holds on every reduction step.
        from repro.check import fuzz as fuzz_mod
        from repro.check.differential import Disagreement

        def always_disagrees(problem, node_limit=0):
            report = DifferentialReport(problem_name=problem.name)
            report.disagreements.append(
                Disagreement(
                    left="bb/best_first+pseudocost",
                    right="bb/cold_nodes",
                    kind="objective",
                    left_value="1",
                    right_value="2",
                    delta=1.0,
                )
            )
            return report

        monkeypatch.setattr(fuzz_mod, "differential_mip", always_disagrees)
        report = run_fuzz(self._options(tmp_path, budget=1))
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.kind == "differential"
        assert failure.repro_path is not None
        assert failure.shrunk_size < failure.original_size

        # `repro replay` reproduces the disagreement from the saved file.
        replayed = replay_repro(failure.repro_path)
        assert replayed.checks == {"differential": 1}
        assert len(replayed.failures) == 1
        assert "bb/best_first+pseudocost vs bb/cold_nodes" in replayed.failures[0].detail

    def test_replay_green_differential_repro(self, tmp_path, warm_vs_cold):
        # A differential repro of a healthy instance replays clean.
        problem = generate_knapsack(8, seed=9)
        path = str(tmp_path / "differential_ok.json")
        save_repro(path, "differential", problem, seed=0, detail="manual")
        report = replay_repro(path)
        assert report.checks == {"differential": 1}
        assert not report.failures
