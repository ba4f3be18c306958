"""Pipeline throughput — artifact cache and process-pool speedups.

Not a paper table: this bench characterizes the experiment *infrastructure*
introduced with :mod:`repro.pipeline`.  It runs the same 2-benchmark ×
2-attack grid three ways — cold serial, cold parallel (2 workers sharing
the on-disk cache), and warm serial (every stage a cache hit) — and
reports wall-clock plus stage-execution accounting.  The warm run is the
headline: a spec rerun (or an incremental grid extension) should do no
stage work at all.

Each cold arm runs ``repro run`` in its own fresh interpreter: forked pool
workers would otherwise inherit in-process synthesis caches warmed by the
arm before them and overstate the pool speedup.  The timings land in
``BENCH_pipeline.json`` (uploaded as a CI artifact).

The pool's speedup is capped by the grid itself: two workers can finish no
sooner than the longest-processing-time-first (LPT) schedule of the cold
serial run's cell times.  The file records each cell's serial seconds,
that ideal two-worker makespan and ``pool_s / makespan``, so a slow pool
shows up as a ratio well above 1 whatever the grid's balance.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.pipeline import (
    AttackSpec,
    BenchmarkSpec,
    ExperimentSpec,
    LockSpec,
    Runner,
    RunResult,
)
from repro.reporting import render_table

POOL_JOBS = 2

pytestmark = pytest.mark.slow  # minute-scale throughput bench; tier-1 skips it (CI runs -m "")


def _grid_spec(scale) -> ExperimentSpec:
    benchmarks = tuple(
        BenchmarkSpec(name=name, scale=scale.circuit_scale)
        for name in scale.benchmarks[:2]
    )
    if len(benchmarks) == 1:  # quick scale may expose a single circuit
        benchmarks = benchmarks + (
            BenchmarkSpec(name=scale.benchmarks[0], scale=scale.circuit_scale,
                          seed=1),
        )
    return ExperimentSpec(
        name="bench-grid",
        benchmarks=benchmarks,
        lock=LockSpec(locker="rll", key_size=scale.key_sizes[0], seed=2023),
        attacks=(
            AttackSpec("scope"),
            AttackSpec("redundancy", params={"num_patterns": 64, "seed": 1}),
        ),
    )


def _cold_run(spec: ExperimentSpec, workdir: Path, jobs: int) -> RunResult:
    """``repro run`` in a fresh interpreter over an empty ``workdir``."""
    spec_path = workdir / "spec.json"
    out_path = workdir / "run.json"
    spec_path.write_text(spec.to_json())
    src = str(Path(repro.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )
    subprocess.run(
        [sys.executable, "-m", "repro.cli", "run", str(spec_path),
         "--jobs", str(jobs), "--workdir", str(workdir / "cache"),
         "--out", str(out_path)],
        check=True,
        stdout=subprocess.DEVNULL,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    return RunResult.load(out_path)


def lpt_makespan(times, workers: int) -> float:
    """Finish time of the LPT schedule: longest job to the least-loaded worker."""
    loads = [0.0] * workers
    for seconds in sorted(times, reverse=True):
        loads[loads.index(min(loads))] += seconds
    return max(loads)


def test_lpt_makespan():
    assert lpt_makespan([], 2) == 0.0
    assert lpt_makespan([10.8, 4.0, 0.2, 0.1], 2) == 10.8
    assert lpt_makespan([3.0, 3.0, 2.0, 2.0, 2.0], 2) == 7.0
    assert lpt_makespan([1.0, 2.0], 1) == 3.0


def test_bench_pipeline_cache_and_pool(scale, benchmark, tmp_path_factory):
    spec = _grid_spec(scale)

    cold_dir = tmp_path_factory.mktemp("pipeline-cold")
    cold = _cold_run(spec, cold_dir, jobs=1)
    cold_s = cold.elapsed_s

    pooled = _cold_run(spec, tmp_path_factory.mktemp("pipeline-pool"),
                       jobs=POOL_JOBS)
    pool_s = pooled.elapsed_s

    # Warm rerun on the cold store: zero stage executions expected.
    started = time.perf_counter()
    warm = Runner(workdir=cold_dir / "cache").run(spec)
    warm_s = time.perf_counter() - started

    # pytest-benchmark samples the steady-state (cached) path.
    benchmark.pedantic(
        lambda: Runner(workdir=cold_dir / "cache").run(spec),
        rounds=3, iterations=1,
    )

    cpus = os.cpu_count() or 1
    pool_speedup = cold_s / pool_s
    cell_serial_s = {
        f"{cell.benchmark}/{cell.attack}": round(cell.elapsed_s, 3)
        for cell in cold.cells
    }
    makespan_s = lpt_makespan(cell_serial_s.values(), POOL_JOBS)
    payload = {
        "bench": "pipeline",
        "benchmarks": [b.name for b in spec.benchmarks],
        "attacks": [a.name for a in spec.attacks],
        "cold_serial_s": round(cold_s, 3),
        "pool_s": round(pool_s, 3),
        "warm_s": round(warm_s, 3),
        "pool_speedup": round(pool_speedup, 3),
        "cell_serial_s": cell_serial_s,
        "ideal_makespan_s": round(makespan_s, 3),
        "pool_over_makespan": round(pool_s / makespan_s, 3),
        "jobs": POOL_JOBS,
        "cpus": cpus,
    }
    Path("BENCH_pipeline.json").write_text(json.dumps(payload, indent=2) + "\n")

    rows = [
        ["cold serial", f"{cold_s:.2f}", cold.executed_stages,
         cold.cached_stages, "1.00"],
        [f"cold pool x{POOL_JOBS}", f"{pool_s:.2f}", pooled.executed_stages,
         pooled.cached_stages, f"{pool_speedup:.2f}"],
        ["warm serial", f"{warm_s:.2f}", warm.executed_stages,
         warm.cached_stages, f"{cold_s / warm_s:.2f}"],
    ]
    print()
    print(render_table(
        ["run", "time [s]", "stages run", "stages cached", "speedup"],
        rows,
        title=f"pipeline grid: {len(spec.benchmarks)} benchmarks x "
              f"{len(spec.attacks)} attacks",
    ))

    # Correctness invariants behind the numbers.
    assert cold.executed_stages > 0
    assert warm.executed_stages == 0
    assert warm.cached_stages == cold.executed_stages + cold.cached_stages
    assert [(c.benchmark, c.attack, c.predicted_key) for c in warm.cells] == [
        (c.benchmark, c.attack, c.predicted_key) for c in cold.cells
    ]
    assert [(c.benchmark, c.attack, c.predicted_key) for c in pooled.cells] == [
        (c.benchmark, c.attack, c.predicted_key) for c in cold.cells
    ]
    # The artifact cache must deliver a real speedup on the warm rerun.
    assert warm_s < cold_s
    # Two workers must pay off when there are cores to run them; cold
    # arms measured in fresh interpreters land around 1.3x on 2 cores.
    if cpus >= 2:
        assert pool_speedup >= 1.15, payload
