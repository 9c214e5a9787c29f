"""The warm-vs-cold differential lane and its fuzz/replay plumbing.

Green over the standard differential corpus (random MIPs + knapsacks)
and the 14-case pathological corpus; contrived disagreements and
determinism breaks must be flagged; the fuzz harness shrinks and saves
a replayable repro when the warm lane fails.
"""

import numpy as np
import pytest

from repro.check import (
    differential_mip,
    differential_warm_lp,
    differential_warm_mip,
    replay_repro,
    run_fuzz,
)
from repro.check.differential import _MIP_CONFIGS, DifferentialReport
from repro.check.fuzz import FuzzOptions
from repro.check.serialize import save_repro
from repro.errors import ReproError
from repro.lp.problem import LinearProgram
from repro.mip.problem import MIPProblem
from repro.problems.knapsack import generate_knapsack
from repro.problems.pathological import pathological_corpus
from repro.problems.random_mip import generate_random_mip


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
    def test_green_on_differential_corpus(self):
        for seed in range(3):
            problem = generate_random_mip(6, 4, seed=seed, density=0.7)
            report = differential_warm_mip(problem)
            assert report.ok, report.disagreements
        report = differential_warm_mip(generate_knapsack(12, seed=5))
        assert report.ok, report.disagreements

    def test_green_on_pathological_corpus(self):
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
                    report = differential_warm_mip(problem, node_limit=500)
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

    def test_cold_lane_runs_inside_differential_mip(self):
        problem = generate_random_mip(5, 3, seed=2, density=0.7)
        report = differential_mip(problem, strategies=())
        assert report.ok, report.disagreements
        assert "bb/cold_nodes" in [r.name for r in report.runs]

    def test_determinism_break_is_flagged(self, monkeypatch):
        # Inject run-to-run jitter into the solver: the two warm runs
        # disagree with each other and the lane must call it out.
        from repro.mip import solver as solver_mod

        problem = generate_knapsack(10, seed=6)
        real_solve = solver_mod.BranchAndBoundSolver.solve
        calls = {"n": 0}

        def jittery(self):
            result = real_solve(self)
            calls["n"] += 1
            if calls["n"] == 2:  # second run only: nondeterminism
                result.stats.nodes_processed += 1
            return result

        monkeypatch.setattr(solver_mod.BranchAndBoundSolver, "solve", jittery)
        report = differential_warm_mip(problem)
        assert not report.ok
        assert report.disagreements[0].kind == "determinism"

    def test_objective_disagreement_is_flagged(self, monkeypatch):
        from repro.mip import solver as solver_mod

        problem = generate_knapsack(10, seed=7)
        real_solve = solver_mod.BranchAndBoundSolver.solve

        def skewed(self):
            result = real_solve(self)
            if not self.options.warm_start:  # cold lane lies
                result.objective += 1.0
            return result

        monkeypatch.setattr(solver_mod.BranchAndBoundSolver, "solve", skewed)
        report = differential_warm_mip(problem)
        assert not report.ok
        kinds = {d.kind for d in report.disagreements}
        assert "objective" in kinds


class TestWarmFuzzLane:
    def _options(self, tmp_path, **overrides):
        defaults = dict(
            budget=3,
            seed=0,
            differential=False,
            lp_differential=False,
            metamorphic=False,
            warm_differential=True,
            max_vars=5,
            max_rows=4,
            out_dir=str(tmp_path),
        )
        defaults.update(overrides)
        return FuzzOptions(**defaults)

    def test_warm_checks_counted_on_clean_run(self, tmp_path):
        report = run_fuzz(self._options(tmp_path))
        assert report.warm_checks >= 1
        assert report.total_checks >= report.warm_checks
        assert not report.failures

    def test_warm_disagreement_shrinks_to_replayable_repro(
        self, tmp_path, monkeypatch
    ):
        # Break the lane itself (deterministically): every warm
        # differential reports a fabricated objective disagreement, so
        # the shrinker's predicate holds on every reduction step.
        from repro.check import fuzz as fuzz_mod
        from repro.check.differential import Disagreement

        def always_disagrees(problem, node_limit=0):
            report = DifferentialReport(problem_name=f"{problem.name}/warm")
            report.disagreements.append(
                Disagreement(
                    left="bb/warm",
                    right="bb/cold",
                    kind="objective",
                    left_value="1",
                    right_value="2",
                    delta=1.0,
                )
            )
            return report

        monkeypatch.setattr(
            fuzz_mod, "differential_warm_mip", always_disagrees
        )
        report = run_fuzz(self._options(tmp_path, budget=1))
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.kind == "warm"
        assert failure.repro_path is not None

        # `repro replay` reproduces the disagreement from the saved file.
        replayed = replay_repro(failure.repro_path)
        assert replayed.warm_checks == 1
        assert len(replayed.failures) == 1
        assert "bb/warm vs bb/cold" in replayed.failures[0].detail

    def test_replay_green_warm_repro(self, tmp_path):
        # A warm-kind repro of a healthy instance replays clean.
        problem = generate_knapsack(8, seed=9)
        path = str(tmp_path / "warm_ok.json")
        save_repro(path, "warm", problem, seed=0, detail="manual")
        report = replay_repro(path)
        assert report.warm_checks == 1
        assert not report.failures
