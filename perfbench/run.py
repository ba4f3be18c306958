"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload defend_almost --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` prints every per-layer metric from a traced replay.  Each
sample runs in a fresh process (``perfbench/worker.py``): set-up is
sampled ``SETUP_SAMPLES`` times, in fresh processes, and reported as
the median.  The full record of the run -- inputs, environment, per-item
digests and every metric -- is written beside the result under
``perfbench/out/``.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
#: What the record keeps of each set-up sample: the scaled time, and the
#: CPU time, median calibration loop and wall time it came from.
SETUP_KEYS = ("setup_s", "setup_cpu_s", "setup_loop_s", "setup_wall_s")
DEADLINE_S = 170.0   # every run must end within 180 s
UNITS = {
    "setup_s": "s", "items_per_s": "1/s", "item_p50_s": "s",
    "peak_rss_mb": "MB", "acc_gap": "ratio", "area_ratio": "ratio",
}


class BenchError(Exception):
    pass


def _worker(config: dict, deadline: float) -> dict:
    config = dict(config, spawned=time.monotonic())
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a sample")
    try:
        # Any artifact cache the program opens on its own lands in the
        # run's scratch directory, never in the user's ~/.cache/repro.
        # One BLAS thread: items are timed in process CPU time, which
        # would count a thread pool's spinning.
        env = dict(os.environ, REPRO_CACHE_DIR=str(Path(config["workdir"]) / "cache"),
                   OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(config)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout,
            check=False,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{config['mode']} sample overran {timeout:.0f} s") from None
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{config['mode']} sample exited with {done.returncode}")
    return json.loads(lines[-1])


def _code_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unavailable (not a git checkout)"


def _environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "git_commit": _git_commit(),
        "code_digest": _code_digest(), "platform": platform.platform(),
    }


def slot_medians(latencies: list, slots: list) -> list:
    """Median latency of each slot of the workload's round, over rounds.

    Every round runs the same slots in the same order, so a slot's median
    over rounds discards a burst of load from other processes that hit
    one of its items.  The first round warms the process up (lazy
    imports, the allocator's arenas) and ran about a tenth slower, so it
    is left out wherever a later round ran; its outputs are still checked.
    """
    by_slot: dict = {}
    for latency, slot in zip(latencies, slots):
        if slot >= 0:
            by_slot.setdefault(slot, []).append(latency)
    return [statistics.median(by_slot[slot][1:] or by_slot[slot])
            for slot in sorted(by_slot)]


def scaled_latencies(sample: dict) -> list:
    """Each item's CPU seconds on the reference host (:mod:`calibrate`).

    All items of a run are scaled by the median of the calibration loops
    run before them: one loop is too short to time a host's speed on its
    own (it ran 0.018 s and 0.033 s minutes apart in one run), the median
    of a run's loops follows its drift from run to run.
    """
    loop_s = statistics.median(sample["loops"])
    return [calibrate.scale(cpu_s, loop_s) for cpu_s in sample["latencies"]]


def end_to_end(setups: list, sample: dict) -> dict:
    medians = slot_medians(scaled_latencies(sample), sample["slots"]) or [0.0]
    return {
        "setup_s": statistics.median(setups),
        "items_per_s": len(medians) / sum(medians) if sum(medians) else 0.0,
        "item_p50_s": statistics.median(medians),
        "peak_rss_mb": sample["peak_rss_mb"],
        "acc_gap": sample["acc_gap"],
        "area_ratio": sample["area_ratio"],
    }


def run(args) -> tuple[dict, dict]:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source under {ROOT / 'src' / 'repro'}")
    deadline = time.monotonic() + DEADLINE_S
    out = HERE / "out"
    workdir = out / f"tmp-{os.getpid()}"
    base = {"root": str(ROOT), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "workdir": str(workdir)}
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            sample = _worker(dict(base, mode="trace"), deadline)
            samples = [sample]
            metrics = sample["layers"]
        else:
            samples = [_worker(dict(base, mode="setup"), deadline)
                       for _ in range(SETUP_SAMPLES - 1)]
            sample = _worker(dict(base, mode="run"), deadline)
            samples.append(sample)
            metrics = end_to_end([s["setup_s"] for s in samples], sample)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    latencies = sorted(scaled_latencies(sample))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": sample["inputs"],
        "environment": _environment(),
        "setup_samples": [{key: s[key] for key in SETUP_KEYS} for s in samples],
        "items": len(latencies), "wall_s": sample["wall_s"],
        "fail_rate": sample["failed"] / max(sample["attempted"], 1),
        "problems": sample["problems"], "outputs_digest": sample["digest"],
        "item_digests": sample["item_digests"],
        "latency_quartiles_s": (statistics.quantiles(latencies, n=4)
                                if len(latencies) > 1 else latencies),
        "slot_medians_s": slot_medians(scaled_latencies(sample), sample["slots"]),
        "cpu_latencies_s": sample["latencies"], "loops_s": sample["loops"],
        "slots": sample["slots"],
        "metrics": metrics,
    }
    for key in ("missing_layers", "spans_file", "searches", "predictions"):
        if key in sample:
            record[key] = sample[key]
    out.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(record, indent=2) + "\n")
    return record, sample


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        record, sample = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in sample["problems"]:
        print(f"check failed: {problem}")
    if record.get("missing_layers"):
        print(f"missing layers: {', '.join(record['missing_layers'])}")
    for claim, held in record.get("predictions", []):
        print(f"prediction {'held' if held else 'FAILED'}: {claim}")
    print(f"{args.workload} seed {args.seed}: {record['items']} items, "
          f"fail_rate {record['fail_rate']:.4f}, first-round digest "
          f"{record['outputs_digest'][:16]}")
    result = {
        "correct": sample["failed"] == 0 and not sample["problems"],
        "attempted": sample["attempted"],
        "failed": sample["failed"],
        "metrics": {
            name: {"value": value, "unit": UNITS.get(name) or _layer_unit(name)}
            for name, value in record["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_rate") or name.endswith("_share"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
