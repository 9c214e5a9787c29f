"""Harness self-tests (not tier-1): ``python -m pytest perf/tests -q``."""

import json
import sys
import time
from pathlib import Path

import numpy as np

from perf import run
from perf.compare import verdict
from perf.trace import TARGETS, Tracer, layer_of, self_times

ROOT = Path(__file__).resolve().parents[2]


def test_self_time_is_duration_minus_child_cover():
    # root [0,10] > a [1,4] > a1 [2,3];  root > b [5,9];  lone [20,21]
    starts = np.array([0.0, 1.0, 2.0, 5.0, 20.0])
    ends = np.array([10.0, 4.0, 3.0, 9.0, 21.0])
    parents = np.array([-1, 0, 1, 0, -1])
    assert self_times(starts, ends, parents).tolist() == [3.0, 2.0, 1.0, 4.0, 1.0]


def _bindings():
    """Every attribute of every loaded repro module and target class, by identity."""
    snapshot = {}
    for name, mod in sys.modules.items():
        if mod is not None and name.split(".")[0] == "repro":
            for attr, value in vars(mod).items():
                snapshot[name, attr] = id(value)
                if isinstance(value, type):
                    for cls_attr, cls_value in vars(value).items():
                        snapshot[name, attr, cls_attr] = id(cls_value)
    return snapshot


def test_install_wraps_every_binding_and_restore_undoes_it():
    import perf.workloads as workloads
    import repro.api
    import repro.cluster.service

    with Tracer():
        pass  # installing imports every target module; snapshot after that
    before = _bindings()
    original = repro.api.solve
    with Tracer() as tracer:
        assert repro.api.solve is not original
        assert workloads.solve is repro.api.solve
        assert repro.api.solve.__wrapped__ is original
        assert len(tracer.names) == len(TARGETS)
    assert repro.api.solve is original and workloads.solve is original
    assert _bindings() == before


def test_spans_of_one_op_share_an_id_and_nest():
    import perf.workloads as workloads

    inputs = workloads.WORKLOADS["tree-exact"].build(0, smoke=True)
    with Tracer() as tracer:
        workloads.WORKLOADS["tree-exact"].run(inputs)
    roots = [i for i, p in enumerate(tracer.parents) if p == -1]
    assert [tracer.names[tracer.name_ids[i]] for i in roots] == ["api.solve"] * len(roots)
    assert sorted({tracer.ops[i] for i in roots}) == list(range(len(roots)))
    for i, parent in enumerate(tracer.parents):
        if parent >= 0:
            assert tracer.ops[i] == tracer.ops[parent]
            assert tracer.starts[parent] <= tracer.starts[i]
            assert tracer.ends[i] <= tracer.ends[parent]
    assert tracer.by_layer(tracer.by_name())["la"][0] > 0


def test_tail_mean_is_the_slowest_share_at_least_one():
    assert run.tail_mean([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]) == 7.0
    assert run.tail_mean([float(i) for i in range(1, 101)]) == 98.0  # 96..100
    assert run.tail_mean([float(i) for i in range(1, 102)]) == 98.5  # ceil(5.05) = 6


def test_wrong_reference_is_caught():
    import perf.workloads as workloads

    def off_by_one(inputs):
        return {k: v + 1.0 for k, v in workloads.reference(inputs).items()}

    entry = run.run_workload("lp-batch", 0, 0.0, "0", smoke=True, optima_override=off_by_one)
    assert entry["failed"] == entry["attempted"] and not entry["correct"]
    assert entry["end_to_end"]["ok_frac"]["value"] == 0.0


def test_smoke_of_every_workload_is_quick_and_correct(capsys):
    t0 = time.perf_counter()
    status = run.main(["--workload", "all", "--smoke", "--seconds", "0", "--trace", "both"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert status == 0
    for name in run.WORKLOAD_NAMES:
        assert f"== {name}:" in out
    assert elapsed < 10.0, elapsed


def test_benchmark_json_matches_the_harness_tables():
    import perf.workloads as workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(spec) == ["command", "end_to_end", "paths", "per_layer",
                            "run_seconds", "workloads"]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] \
        == [(w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES
    assert {layer_of(target) for target, _, _ in TARGETS} == set(run.LAYERS)


def test_compare_verdicts():
    assert verdict(10.0, 12.0, "lower", 0.1) == "worse"
    assert verdict(10.0, 10.5, "lower", 0.1) == "ok"
    assert verdict(10.0, 8.0, "lower", 0.1) == "better"
    assert verdict(100.0, 85.0, "higher", 0.1) == "worse"
    assert verdict(100.0, 120.0, "higher", 0.1) == "better"
