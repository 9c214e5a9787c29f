"""CLI tests (direct main() invocation, no subprocesses)."""

import numpy as np
import pytest

from repro.cli import main
from repro.problems.knapsack import generate_knapsack, knapsack_dp_optimal
from repro.problems.mps import write_mps


@pytest.fixture
def model_path(tmp_path):
    problem = generate_knapsack(12, seed=5)
    path = str(tmp_path / "model.mps")
    write_mps(problem, path)
    return path


class TestSolve:
    def test_plain_solve(self, model_path, capsys):
        assert main(["solve", model_path]) == 0
        out = capsys.readouterr().out
        assert "status    : optimal" in out
        expected, _ = knapsack_dp_optimal(generate_knapsack(12, seed=5))
        assert f"{expected:.6g}" in out

    def test_solve_with_strategy(self, model_path, capsys):
        assert main(["solve", model_path, "--strategy", "cpu_orchestrated"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out and "kernels" in out

    def test_degraded_strategy_prints_the_fallback(
        self, model_path, capsys, monkeypatch
    ):
        """A strategy that degrades to ``direct`` has no platform to
        print; the report names the strategy that answered."""
        from repro.lp.result import LPResult, LPStatus
        from repro.lp.warm import WarmSolveOutcome
        from repro.mip.solver import BranchAndBoundSolver
        from repro.strategies.engine import CpuOrchestratedEngine

        monkeypatch.setattr(
            CpuOrchestratedEngine,
            "solve_relaxation",
            lambda self, sf, warm=None, probe=False: WarmSolveOutcome(
                LPResult(status=LPStatus.NUMERICAL)
            ),
        )
        monkeypatch.setattr(
            BranchAndBoundSolver,
            "_escalate_node",
            lambda self, sf, first: first,
        )
        assert main(["solve", model_path, "--strategy", "cpu_orchestrated"]) == 0
        out = capsys.readouterr().out
        assert "strategy  : direct" in out
        assert "cpu_orchestrated -> direct" in out
        assert "kernels" not in out

    def test_solve_with_cuts(self, model_path, capsys):
        assert main(["solve", model_path, "--cut-rounds", "2"]) == 0

    def test_checkpoint_restart_cycle(self, model_path, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt.json")
        assert (
            main(["solve", model_path, "--node-limit", "3", "--checkpoint", ckpt])
            in (0, 1)
        )
        capsys.readouterr()
        assert main(["solve", model_path, "--restart-from", ckpt]) == 0
        out = capsys.readouterr().out
        expected, _ = knapsack_dp_optimal(generate_knapsack(12, seed=5))
        assert f"{expected:.6g}" in out

    def test_missing_file_errors(self, capsys):
        assert main(["solve", "/nonexistent.mps"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--branching", "--node-selection"])
    def test_unknown_rule_name_errors(self, model_path, capsys, flag):
        assert main(["solve", model_path, flag, "nope"]) == 2
        assert "error:" in capsys.readouterr().err


class TestGenerateInfoList:
    def test_generate_then_info(self, tmp_path, capsys):
        out_path = str(tmp_path / "gen.mps")
        assert main(["generate", "knap-20", "-o", out_path]) == 0
        capsys.readouterr()
        assert main(["info", out_path]) == 0
        out = capsys.readouterr().out
        assert "variables" in out and "20" in out

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "knap-20" in out and "uc-3x4" in out

    def test_unknown_command_rejected(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "error:" in capsys.readouterr().err


class TestCertify:
    def test_certify_honest_model(self, model_path, capsys):
        assert main(["certify", model_path]) == 0
        out = capsys.readouterr().out
        assert "certificate" in out
        assert "differential" in out
        assert "certified: OK" in out

    def test_certify_skip_differential(self, model_path, capsys):
        assert main(["certify", model_path, "--skip-differential"]) == 0
        out = capsys.readouterr().out
        assert "differential" not in out
        assert "certified: OK" in out

    def test_certify_with_strategy(self, model_path, capsys):
        assert (
            main(
                [
                    "certify", model_path,
                    "--strategy", "cpu_orchestrated",
                    "--skip-differential",
                ]
            )
            == 0
        )
        assert "certified: OK" in capsys.readouterr().out


class TestFuzzCommand:
    def test_clean_fuzz_run_exits_zero(self, tmp_path, capsys):
        assert (
            main(
                [
                    "fuzz",
                    "--budget", "3",
                    "--seed", "0",
                    "--out", str(tmp_path),
                    "--max-vars", "5",
                    "--max-rows", "3",
                    "--no-metamorphic",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "fuzz" in out and "failures" in out

    def test_replay_missing_file_errors(self, tmp_path, capsys):
        assert main(["replay", str(tmp_path / "missing.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_fuzz_then_replay_roundtrip(self, tmp_path, capsys, monkeypatch):
        # Corrupt the solver the fuzzer uses, harvest a repro, then replay it
        # through the CLI (which uses the honest solver): no longer reproduces.
        import repro.check.fuzz as fuzz_mod

        honest = fuzz_mod.default_solve_fn()

        def corrupt_factory(node_limit=None):
            def solve(problem):
                result = honest(problem)
                if result.objective is not None:
                    result.objective += 0.5
                return result

            return solve

        monkeypatch.setattr(fuzz_mod, "default_solve_fn", corrupt_factory)
        assert (
            main(
                [
                    "fuzz",
                    "--budget", "1",
                    "--seed", "0",
                    "--out", str(tmp_path),
                    "--no-differential",
                    "--no-lp-differential",
                    "--no-metamorphic",
                ]
            )
            == 1
        )
        capsys.readouterr()
        repros = sorted(tmp_path.glob("*.json"))
        assert repros
        monkeypatch.undo()
        assert main(["replay", str(repros[0])]) == 0
        assert "no longer reproduces" in capsys.readouterr().out


class TestNodeLpFlag:
    def test_pdhg_node_lp_solves_exactly(self, model_path, capsys):
        assert main(["solve", model_path, "--node-lp", "pdhg"]) == 0
        out = capsys.readouterr().out
        assert "status    : optimal" in out
        expected, _ = knapsack_dp_optimal(generate_knapsack(12, seed=5))
        assert f"{expected:.6g}" in out

    def test_unknown_node_lp_rejected(self, model_path, capsys):
        assert main(["solve", model_path, "--node-lp", "barrier"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_big_mip_rejects_pdhg_nodes(self, model_path, capsys):
        argv = ["solve", model_path, "--strategy", "big_mip_4", "--node-lp", "pdhg"]
        assert main(argv) == 2
        assert "pdhg" in capsys.readouterr().err


class TestBenchSmoke:
    def test_writes_and_validates_artifact(self, tmp_path):
        from benchmarks.bench_e14_pdhg_crossover import crossover_bench_payload
        from repro.obs.bench import load_bench_json, write_bench_json

        out = tmp_path / "BENCH_smoke.json"
        write_bench_json(out, crossover_bench_payload([2, 3], batch=2))
        payload = load_bench_json(out)
        assert payload["bench"] == "pdhg_crossover"
        assert len(payload["rows"]) == 2


class TestWarmBench:
    @pytest.fixture(scope="class")
    def payload(self):
        from benchmarks.bench_e15_warm import warm_bench_payload

        return warm_bench_payload(node_limit=2000, serve_requests=8)

    def test_mini_run_writes_valid_artifact(self, payload, tmp_path):
        from benchmarks.bench_e15_warm import MIN_NODE_TIME_REDUCTION
        from repro.obs.bench import load_bench_json, write_bench_json

        out = tmp_path / "BENCH_warm.json"
        write_bench_json(out, payload)
        loaded = load_bench_json(out)
        assert loaded["bench"] == "e15_warm"
        summary = loaded["summary"]
        assert summary["node_time_reduction"] > MIN_NODE_TIME_REDUCTION
        assert summary["serve_range_hits"] + summary["serve_warm_hits"] > 0

    def test_min_reduction_gate_fails_the_run(self, payload):
        from benchmarks.bench_e15_warm import MIN_NODE_TIME_REDUCTION, check_claims

        check_claims(payload)
        doctored = dict(payload)
        doctored["summary"] = dict(
            payload["summary"], node_time_reduction=MIN_NODE_TIME_REDUCTION
        )
        with pytest.raises(AssertionError, match="node_time_reduction"):
            check_claims(doctored)


class TestRemovedBenchCommands:
    def test_rejected_like_any_unknown_command(self):
        # The artifact-writing experiments are benchmarks/bench_*.py now.
        for argv in (
            ["bench-smoke"],
            ["warm-bench"],
            ["portfolio-bench"],
            ["cluster-bench"],
            ["chaos", "--bench", "BENCH_chaos.json"],
        ):
            assert main(argv) == 2
