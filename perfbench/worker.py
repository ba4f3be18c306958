"""One benchmark process: set up, run the timed phase, check the outputs.

``run.py`` starts this file once per sample, each time as a fresh process,
with one JSON argument::

    {"root": <checkout>, "workload": <name>, "seed": <n>, "seconds": <s>,
     "mode": "setup" | "run" | "trace", "spawned": <time.monotonic()>,
     "workdir": <scratch directory inside the checkout>}

``setup`` stops after set-up; ``run`` times the item stream untraced;
``trace`` runs a third of the budget untraced, replays the same items
under :class:`layers.LayerTrace`, then once more untraced, and reports
the per-layer table plus the traced-minus-untraced overhead on those
items.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path


#: Calibration loops run just before set-up, and again just after it.
SETUP_LOOPS = 3

#: Per-layer metrics the traced run adds to :func:`layers.layer_metrics`.
TRACE_EXTRAS = ("timed.items", "timed.wall_s", "synth.timed_share",
                "trace.overhead_pct", "trace.missing_layers")


def _digest(outputs) -> str:
    return hashlib.sha256(
        json.dumps(outputs, sort_keys=True, default=str).encode()).hexdigest()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _replay(workload, state: dict, log, workdir: Path, trace=None):
    """Run the items of ``log`` again, under ``trace`` when given."""
    from workloads import Budget, ItemLog

    again = ItemLog()
    replay_state = dict(state, cells=[], searches=[], workdir=str(workdir))
    if trace is not None:
        trace.install()
    try:
        started = time.perf_counter()
        workload.run(replay_state, Budget(items=log.attempted), again)
        wall_s = time.perf_counter() - started
    finally:
        if trace is not None:
            trace.remove()
    if again.outputs != log.outputs:
        log.problems.append(f"replay in {workdir.name} produced different outputs")
        log.failed.update(range(log.attempted))
    return again, wall_s


def _traced(workload, state: dict, log, workdir: Path, trace) -> dict:
    """Per-layer metrics from a traced replay of the untraced items.

    The overhead compares the traced replay with an untraced replay of the
    same items that follows it, so both run in an equally warm process.
    """
    import layers

    since = len(trace.recorder.spans)
    traced, wall_s = _replay(workload, state, log, workdir / "traced", trace)
    plain, _ = _replay(workload, state, log, workdir / "untraced")
    timed = trace.recorder.self_times(since)
    synth_s = sum(timed.get(f"synth.{p}", [0, 0.0])[1] for p in layers.SYNTH_PASSES)
    metrics = layers.layer_metrics(trace.recorder)
    traced_s, plain_s = sum(traced.latencies), sum(plain.latencies)
    metrics.update({
        "timed.items": traced.attempted,
        "timed.wall_s": wall_s,
        "synth.timed_share": synth_s / wall_s if wall_s else 0.0,
        "trace.overhead_pct": 100.0 * (traced_s - plain_s) / plain_s if plain_s else 0.0,
        "trace.missing_layers": len(trace.missing),
    })
    return metrics


def main(config: dict) -> dict:
    root = Path(config["root"])
    workdir = Path(config["workdir"])
    sys.path.insert(0, str(root / "src"))
    import calibrate
    import layers
    from workloads import WORKLOADS, Budget, ItemLog

    workload = WORKLOADS[config["workload"]]
    mode = config["mode"]
    # Set-up is timed in CPU time, like the items: this process's CPU time,
    # less the calibration loops, covers interpreter start, imports and the
    # workload's set-up.  It is scaled by the median of the loops run just
    # before and just after it.
    started = time.monotonic()
    loops = [calibrate.sample() for _ in range(SETUP_LOOPS)]
    loops_wall_s = time.monotonic() - started
    trace = layers.LayerTrace(layers.SpanRecorder())
    if mode == "trace":
        trace.install()
    try:
        state = workload.setup(config["seed"])
    finally:
        trace.remove()
    setup_cpu_s = time.process_time() - sum(loops)
    setup_wall_s = time.monotonic() - config["spawned"] - loops_wall_s
    loops += [calibrate.sample() for _ in range(SETUP_LOOPS)]
    loop_s = statistics.median(loops)
    result = {"setup_s": calibrate.scale(setup_cpu_s, loop_s),
              "setup_cpu_s": setup_cpu_s, "setup_loop_s": loop_s,
              "setup_wall_s": setup_wall_s}
    if mode == "setup":
        return result
    state["workdir"] = str(workdir / "timed")
    seconds = config["seconds"] / 3 if mode == "trace" else config["seconds"]
    log = ItemLog()
    started = time.perf_counter()
    workload.run(state, Budget(seconds), log)
    result["wall_s"] = time.perf_counter() - started
    if mode == "trace":
        metrics = _traced(workload, state, log, workdir, trace)
        result["layers"] = metrics
        result["missing_layers"] = trace.missing
        result["predictions"] = layers.verdicts(workload.name, metrics)
        spans = workdir.parent / f"{workload.name}-seed{config['seed']}-spans.json"
        spans.write_text(json.dumps(trace.recorder.rows()))
        result["spans_file"] = str(spans.relative_to(root))
    quality = workload.check(state, log)
    result.update(
        latencies=log.latencies,
        loops=log.loops,
        slots=log.slots,
        attempted=log.attempted,
        failed=len(log.failed),
        problems=log.problems,
        digest=_digest(log.outputs[:workload.round_items]),
        item_digests=[_digest(output)[:16] for output in log.outputs],
        peak_rss_mb=_peak_rss_mb(),
        inputs=workload.inputs(),
        **quality,
    )
    return result


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    print(json.dumps(main(json.loads(sys.argv[1]))))
