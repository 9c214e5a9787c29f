"""Fuzz harness tests, including the end-to-end acceptance scenario:
a corrupted solver is caught, shrunk, and the repro file replays — and
the replay contract: a repro replays the very check that failed."""

import numpy as np
import pytest

from repro.check import (
    FuzzOptions,
    load_repro,
    problem_from_dict,
    problem_to_dict,
    replay_repro,
    run_fuzz,
    save_repro,
)
from repro.check.fuzz import default_solve_fn
from repro.mip.problem import MIPProblem
from repro.problems.random_mip import generate_random_mip


class TestSerialize:
    def test_problem_roundtrip_with_infinities(self):
        problem = MIPProblem(
            c=np.array([1.0, -2.5, 0.125]),
            integer=np.array([True, False, True]),
            a_ub=np.array([[1.0, 2.0, 0.0]]),
            b_ub=np.array([4.0]),
            a_eq=np.array([[0.0, 1.0, 1.0]]),
            b_eq=np.array([2.0]),
            lb=np.array([0.0, -np.inf, 0.0]),
            ub=np.array([np.inf, 3.0, 1.0]),
            name="roundtrip",
        )
        back = problem_from_dict(problem_to_dict(problem))
        assert np.array_equal(back.c, problem.c)
        assert np.array_equal(back.integer, problem.integer)
        assert np.array_equal(back.a_ub, problem.a_ub)
        assert np.array_equal(back.a_eq, problem.a_eq)
        assert np.array_equal(back.lb, problem.lb)
        assert np.array_equal(back.ub, problem.ub)
        assert back.name == problem.name

    def test_save_load_repro(self, tmp_path):
        problem = generate_random_mip(5, 3, seed=0)
        path = tmp_path / "nested" / "case.json"
        save_repro(
            str(path),
            kind="certificate",
            problem=problem,
            seed=17,
            detail="unit test",
            provenance={"campaign_seed": 0, "iteration": 4},
        )
        doc = load_repro(str(path))
        assert doc["kind"] == "certificate"
        assert doc["seed"] == 17
        assert doc["provenance"] == {"campaign_seed": 0, "iteration": 4}
        assert np.array_equal(doc["problem"].c, problem.c)

    def test_load_rejects_unknown_version(self, tmp_path):
        import json

        from repro.errors import ReproError

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 999}))
        with pytest.raises(ReproError):
            load_repro(str(path))


class TestRunFuzz:
    def test_clean_smoke_run(self, tmp_path):
        options = FuzzOptions(
            budget=8,
            seed=0,
            out_dir=str(tmp_path),
            max_vars=6,
            max_rows=4,
        )
        report = run_fuzz(options)
        assert report.ok, [f.detail for f in report.failures]
        assert report.instances == 8
        assert report.total_checks > 0

    def test_corrupt_solver_caught_shrunk_and_replayable(self, tmp_path):
        """Acceptance criterion: perturbing the incumbent objective is caught
        by the certificate checker and produces a shrunk, replayable repro."""
        base = default_solve_fn()

        def corrupt(problem):
            result = base(problem)
            if result.objective is not None:
                result.objective += 0.5
            return result

        options = FuzzOptions(
            budget=3,
            seed=0,
            out_dir=str(tmp_path),
            differential=False,
            lp_differential=False,
            metamorphic=False,
            max_vars=6,
            max_rows=4,
        )
        report = run_fuzz(options, solve_fn=corrupt)
        assert not report.ok
        assert len(report.failures) == 3
        for failure in report.failures:
            assert failure.kind == "certificate"
            assert failure.repro_path is not None
            assert failure.shrunk_size <= failure.original_size

        # The repro file replays: still failing under the corrupt solver...
        first = report.failures[0]
        replay_bad = replay_repro(first.repro_path, solve_fn=corrupt)
        assert not replay_bad.ok
        # ...and passing under the honest solver.
        replay_good = replay_repro(first.repro_path, solve_fn=base)
        assert replay_good.ok

    def test_solver_exception_recorded_as_failure(self, tmp_path):
        from repro.errors import ReproError

        def broken(problem):
            raise ReproError("kernel panic")

        options = FuzzOptions(
            budget=2,
            seed=1,
            out_dir=str(tmp_path),
            shrink=False,
            differential=False,
            lp_differential=False,
            metamorphic=False,
        )
        report = run_fuzz(options, solve_fn=broken)
        assert not report.ok
        assert all(f.kind == "solver-error" for f in report.failures)

    def test_deterministic_across_runs(self, tmp_path):
        options = dict(
            budget=5,
            seed=7,
            metamorphic=False,
            differential=False,
            lp_differential=False,
            max_vars=6,
            max_rows=4,
        )
        r1 = run_fuzz(FuzzOptions(out_dir=str(tmp_path / "a"), **options))
        r2 = run_fuzz(FuzzOptions(out_dir=str(tmp_path / "b"), **options))
        assert r1.ok and r2.ok
        assert r1.total_checks == r2.total_checks


class TestReplayContract:
    """The campaign, the shrinker and replay run one copy of each check."""

    def test_every_metamorphic_repro_replays_under_the_same_wrong_solver(self, tmp_path):
        # Wrong only on the variant that fixes variable 0: the campaign
        # samples METAMORPHIC_VARIANTS of the variants from the oracle
        # seed, so replay must draw the same ones from the stored seed.
        honest = default_solve_fn()

        def wrong_on_fix0(problem):
            result = honest(problem)
            if problem.name.endswith("+fix0"):
                result.objective += 1.0
            return result

        options = FuzzOptions(
            budget=20,
            seed=0,
            out_dir=str(tmp_path),
            shrink=False,
            differential=False,
            lp_differential=False,
        )
        report = run_fuzz(options, solve_fn=wrong_on_fix0)
        assert [f.kind for f in report.failures] == ["metamorphic"] * 4
        for failure in report.failures:
            assert not replay_repro(failure.repro_path, solve_fn=wrong_on_fix0).ok
            assert replay_repro(failure.repro_path, solve_fn=honest).ok

    def test_campaign_and_replay_run_differential_mip_at_one_node_limit(
        self, tmp_path, monkeypatch
    ):
        from repro.check import fuzz as fuzz_mod
        from repro.check.differential import DifferentialReport, Disagreement

        node_limits = []

        def recorder(problem, node_limit=50_000, strategies=None):
            node_limits.append(node_limit)
            report = DifferentialReport(problem_name=problem.name)
            report.disagreements.append(
                Disagreement("bb/a", "bb/b", "objective", "1", "2", delta=1.0)
            )
            return report

        monkeypatch.setattr(fuzz_mod, "differential_mip", recorder)
        options = FuzzOptions(
            budget=1,
            seed=0,
            out_dir=str(tmp_path),
            shrink=False,
            lp_differential=False,
            metamorphic=False,
        )
        (failure,) = run_fuzz(options).failures
        assert failure.kind == "differential"
        campaign = list(node_limits)
        assert not replay_repro(failure.repro_path).ok
        assert node_limits[len(campaign):] == campaign
