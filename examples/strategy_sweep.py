#!/usr/bin/env python3
"""A single-spec search-strategy sweep, end to end.

One :class:`~repro.pipeline.ExperimentSpec` declares ``strategy = ["sa",
"pt", "beam"]``; the runner expands it into one grid row per strategy —
same benchmark, same lock, same proxy budget, same seed — and the
``search`` reporter renders the comparison table from the single
:class:`~repro.pipeline.RunResult`.  The spec round-trips through a TOML
file on the way, so the exact experiment below is reproducible with
``repro grid --spec strategy_sweep.toml`` (or ``repro run``).

Budgets are kept small so the sweep finishes in about a minute cold; see
docs/search-tuning.md for what the knobs mean and when each strategy
wins.
"""

import tempfile
from pathlib import Path

from repro.pipeline import (
    BenchmarkSpec,
    DefenseSpec,
    ExperimentSpec,
    LockSpec,
    ReportSpec,
    Runner,
)
from repro.reporting import records_from_run

BENCH = "c432"
STRATEGIES = ["sa", "pt", "beam"]

SWEEP = ExperimentSpec(
    name="strategy-sweep",
    benchmarks=(BenchmarkSpec(name=BENCH),),
    lock=LockSpec(locker="rll", key_size=8, seed=5),
    defense=DefenseSpec(
        name="almost",
        iterations=4,
        samples=16,
        epochs=4,
        seed=11,
        strategy=STRATEGIES,
        chains=3,
    ),
    report=ReportSpec(format="search"),
)


def main() -> None:
    # The spec file *is* the experiment: write it, load it back, run it.
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = Path(tmp) / "strategy_sweep.toml"
        SWEEP.dump(spec_path)
        spec = ExperimentSpec.load(spec_path)
    assert spec == SWEEP
    assert spec.defense.is_sweep and spec.defense.strategies == tuple(
        STRATEGIES
    )

    print(f"{BENCH}: one spec, {len(STRATEGIES)} strategies "
          f"({', '.join(STRATEGIES)}) on identical budgets...")
    runner = Runner()
    run = runner.run(spec)

    print()
    print(runner.report(run, spec))

    records = records_from_run(run)
    assert [r.strategy for r in records] == STRATEGIES
    best = min(records, key=lambda r: r.best_energy)
    print(f"\nclosest to the 50% target: {best.strategy} "
          f"(predicted attack accuracy "
          f"{100 * (best.predicted_accuracy or 0):.2f}%)")
    cached = [
        r.strategy for r in records if (r.cache_hit_rate or 0) > 0
    ]
    if cached:
        print(f"synth-cache hits observed for: {', '.join(cached)} "
              "(batched strategies cluster candidates around shared "
              "AIG states)")


if __name__ == "__main__":
    main()
