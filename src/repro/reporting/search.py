"""Strategy-comparison tables for the recipe-search engine.

One row per search run: strategy, batch shape, outcome quality (best
energy / predicted accuracy) and throughput accounting (iterations vs.
energy evaluations, wall-clock, evals/sec, synth-cache hit rate).  Used
by ``benchmarks/test_bench_search.py``, ``repro defend --scheme almost``,
and — via :func:`records_from_run` and the ``search`` reporter — by strategy
sweeps: one spec with ``strategy = ["sa", "pt", "beam"]`` yields a
populated comparison table from a single ``repro grid``/``repro run``
invocation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.reporting.tables import render_table


def hit_rate_if_traffic(stats: Optional[dict]) -> Optional[float]:
    """The stats dict's synth-cache hit rate, or ``None`` if the cache
    never saw traffic (so tables render ``n/a`` instead of a bogus 0%)."""
    stats = stats or {}
    if stats.get("steps_saved", 0) + stats.get("steps_executed", 0):
        return stats.get("hit_rate")
    return None


@dataclass
class SearchStrategyRecord:
    """One search run reduced to comparison-table numbers."""

    strategy: str
    chains: int
    jobs: int
    best_energy: float
    predicted_accuracy: Optional[float]
    iterations: int
    energy_evaluations: int
    elapsed_s: float
    cache_hit_rate: Optional[float] = None
    label: str = ""

    @property
    def evals_per_s(self) -> float:
        return (
            self.energy_evaluations / self.elapsed_s if self.elapsed_s else 0.0
        )

    @staticmethod
    def from_almost(
        result,
        elapsed_s: float,
        chains: int = 1,
        jobs: int = 1,
        cache_hit_rate: Optional[float] = None,
        label: str = "",
    ) -> "SearchStrategyRecord":
        """Build a record from an :class:`repro.core.almost.AlmostResult`."""
        if cache_hit_rate is None:
            cache_hit_rate = hit_rate_if_traffic(result.synth_cache)
        return SearchStrategyRecord(
            strategy=result.strategy,
            chains=chains,
            jobs=jobs,
            best_energy=abs(result.predicted_accuracy - 0.5),
            predicted_accuracy=result.predicted_accuracy,
            iterations=result.iterations,
            energy_evaluations=result.energy_evaluations,
            elapsed_s=elapsed_s,
            cache_hit_rate=cache_hit_rate,
            label=label,
        )

    @staticmethod
    def from_cell(
        cell, warmup_elapsed: Optional[dict] = None
    ) -> Optional["SearchStrategyRecord"]:
        """Build a record from a grid :class:`~repro.pipeline.runner.\
CellResult` whose defense stage ran a recipe search; ``None`` otherwise.

        The wall-clock is the cell's defense-stage time from the stage log
        (proxy training included).  When the cell only *hit* the cache —
        e.g. the parallel runner's prefix-warming pass executed the
        defense before the cells ran — ``warmup_elapsed`` (a fingerprint
        → seconds map from the warmup log) supplies the real execution
        time instead of the near-zero cache-read time.
        """
        info = (cell.details or {}).get("defense") or {}
        if "strategy" not in info or "predicted_accuracy" not in info:
            return None
        elapsed = 0.0
        for entry in cell.stages:
            if entry.get("stage") != "defense":
                continue
            elapsed = entry["elapsed_s"]
            if entry.get("cached") and warmup_elapsed:
                elapsed = warmup_elapsed.get(
                    entry.get("fingerprint"), elapsed
                )
            break
        hit_rate = hit_rate_if_traffic(info.get("synth_cache"))
        accuracy = info["predicted_accuracy"]
        return SearchStrategyRecord(
            strategy=info["strategy"],
            chains=info.get("chains", 1),
            jobs=info.get("jobs", 1),
            best_energy=abs(accuracy - 0.5),
            predicted_accuracy=accuracy,
            iterations=info.get("search_iterations", 0),
            energy_evaluations=info.get("energy_evaluations", 0),
            elapsed_s=elapsed,
            cache_hit_rate=hit_rate,
            label=cell.benchmark,
        )


def records_from_run(run) -> list[SearchStrategyRecord]:
    """Strategy-comparison records for a grid run, one per search.

    Attack cells of one benchmark share their (cached) defense stage, so
    records are deduplicated per (benchmark, strategy), first cell in run
    order winning.  Under the parallel runner that first cell may itself
    be a cache hit (the prefix-warming pass executed the search); the
    warmup log's timings are threaded through so the table still shows
    real execution wall-clock.
    """
    warmup_elapsed = {
        entry["fingerprint"]: entry["elapsed_s"]
        for entry in (getattr(run, "warmup", None) or [])
        if entry.get("stage") == "defense" and not entry.get("cached")
    }
    records: list[SearchStrategyRecord] = []
    seen: set[tuple[str, str]] = set()
    for cell in run.cells:
        record = SearchStrategyRecord.from_cell(cell, warmup_elapsed)
        if record is None:
            continue
        key = (cell.benchmark, record.strategy)
        if key in seen:
            continue
        seen.add(key)
        records.append(record)
    return records


def render_search_comparison_table(
    records: Sequence[SearchStrategyRecord],
    title: str = "Recipe-search strategy comparison",
) -> str:
    labelled = any(record.label for record in records)
    rows = []
    for record in records:
        row = [
            record.strategy,
            record.chains,
            record.jobs,
            f"{record.best_energy:.4f}",
            (
                f"{100 * record.predicted_accuracy:.2f}%"
                if record.predicted_accuracy is not None
                else "n/a"
            ),
            record.iterations,
            record.energy_evaluations,
            f"{record.elapsed_s:.2f}",
            f"{record.evals_per_s:.2f}",
            (
                f"{100 * record.cache_hit_rate:.1f}%"
                if record.cache_hit_rate is not None
                else "n/a"
            ),
        ]
        if labelled:
            row.insert(0, record.label)
        rows.append(row)
    headers = [
        "strategy",
        "chains",
        "jobs",
        "best |acc-0.5|",
        "pred. acc",
        "iters",
        "evals",
        "wall s",
        "evals/s",
        "synth-cache hits",
    ]
    if labelled:
        headers.insert(0, "benchmark")
    return render_table(headers, rows, title=title)
