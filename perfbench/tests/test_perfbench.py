"""Tests of the benchmark itself: inputs, tracing and the metric contract.

Run from the repository root with ``python -m pytest perfbench/tests``;
the end-to-end traced runs are marked ``slow``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


def test_end_to_end_metrics_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert declared == run.UNITS


def test_per_layer_metrics_match_benchmark_json():
    produced = set(layers.layer_metrics(layers.SpanRecorder())) | set(worker.TRACE_EXTRAS)
    assert produced == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert metric["unit"] == run._layer_unit(metric["name"])


def _specs(workload, seed):
    return [workload.spec(seed, i).to_dict() for i in range(2 * len(workload.order))]


def test_attack_grid_inputs_follow_the_seed():
    workload = workloads.WORKLOADS["attack_grid"]
    assert _specs(workload, 3) == _specs(workload, 3)
    assert _specs(workload, 3) != _specs(workload, 4)


def test_query_grid_locks_are_pinned_per_slot():
    workload = workloads.WORKLOADS["query_grid"]
    specs = _specs(workload, 3)
    assert specs == _specs(workload, 4)
    size = len(workload.order)
    for first, again in zip(specs[:size], specs[size:]):
        assert first["lock"] == again["lock"]
        assert first.get("defense") == again.get("defense")


def test_defended_design_is_pinned():
    from repro.netlist.bench_io import write_bench

    defend = workloads.WORKLOADS["defend_almost"]
    first, again = defend.lock(), defend.lock()
    assert first.key == again.key
    assert write_bench(first.netlist) == write_bench(again.netlist)


def test_self_time_subtracts_direct_children():
    recorder = layers.SpanRecorder()
    recorder.spans = [["outer", -1, 0.0, 10.0], ["inner", 0, 2.0, 5.0],
                      ["leaf", 1, 3.0, 4.0]]
    times = recorder.self_times()
    assert times["outer"] == [1, 7.0]
    assert times["inner"] == [1, 2.0]
    assert times["leaf"] == [1, 1.0]


def test_trace_patches_by_name_imports_and_restores_them():
    import repro.locking.rll as rll
    import repro.pipeline.stages as stages
    from repro.circuits import load_iscas85

    original = rll.lock_rll
    recorder = layers.SpanRecorder()
    targets = [
        layers.Target("locking", "repro.locking.rll", "lock_rll", "locking"),
        layers.Target("gone", "repro.no_such_module", "anything", "gone"),
        layers.Target("gone", "repro.locking.rll", "no_such_function", "gone"),
    ]
    with layers.LayerTrace(recorder, targets) as trace:
        assert stages.lock_rll is not original
        stages.lock_rll(load_iscas85("c432"), key_size=4, seed=0)
    assert trace.missing == ["gone: repro.no_such_module.anything",
                             "gone: repro.locking.rll.no_such_function"]
    assert stages.lock_rll is original and rll.lock_rll is original
    assert recorder.self_times()["locking"][0] == 1


def test_slot_medians_drop_the_warm_up_round_and_a_burst():
    latencies = [1.5, 3.0, 1.0, 2.0, 1.1, 9.0, 0.9, 2.1]
    slots = [0, 1] * 4
    assert run.slot_medians(latencies, slots) == [1.0, 2.1]
    assert run.slot_medians([1.5, 3.0], [0, 1]) == [1.5, 3.0]


def test_items_are_scaled_by_the_runs_median_loop():
    import calibrate

    loop = calibrate.REFERENCE_S
    sample = {"latencies": [0.5, 1.0, 0.2], "loops": [loop, 2 * loop, 2 * loop]}
    share = 2 ** -calibrate.SENSITIVITY
    assert run.scaled_latencies(sample) == pytest.approx([0.5 * share, share, 0.2 * share])
    assert calibrate.scale(0.5, loop) == 0.5
    log = workloads.ItemLog()
    log.add(log.start(), "output", 0)
    assert log.loops[0] > 0 and log.latencies[0] >= 0


def test_run_fails_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in BENCH_DIR.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query_grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def _traced(name: str) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "2",
         "--seconds", "4", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_fires_the_predicted_layers(name):
    result = _traced(name)
    assert result["correct"] and result["failed"] == 0
    metrics = {key: value["value"] for key, value in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["trace.missing_layers"] == 0
    synth_calls = sum(metrics[f"synth.{p}.calls"] for p in layers.SYNTH_PASSES)
    if name == "query_grid":
        assert synth_calls == 0 and metrics["sat.solve.calls"] > 0
    else:
        assert synth_calls > 0 and metrics["sat.solve.calls"] == 0
    if name == "defend_almost":
        assert metrics["synth.timed_share"] > 0.5
        assert metrics["search.evaluations"] == metrics["timed.items"]


def test_reference_evaluation_accepts_resynthesis_and_rejects_a_wrong_key():
    import numpy as np

    import reference
    from repro.circuits import load_iscas85
    from repro.locking import lock_rll
    from repro.synth.engine import synthesize_netlist
    from repro.synth.recipe import RESYN2

    locked = lock_rll(load_iscas85("c432"), key_size=4, seed=1)
    netlist = locked.netlist
    values = reference.patterns(netlist.inputs, np.random.default_rng(0))
    assert reference.mismatch_rate(
        netlist, synthesize_netlist(netlist, RESYN2), values) == 0.0
    plain = reference.patterns(netlist.functional_inputs, np.random.default_rng(0))
    keys = netlist.key_inputs
    wrong = [1 - locked.key.bits[0], *locked.key.bits[1:]]
    assert reference.mismatch_rate(
        netlist, netlist, reference.with_key(plain, keys, locked.key.bits),
        reference.with_key(plain, keys, wrong)) > 0.0
