"""Process-local metrics registry: counters, gauges and histograms.

One registry per process holds every named metric the library increments —
solver effort (``sat.conflicts`` / ``sat.decisions`` / ``sat.propagations``
/ ``sat.restarts``), DIP-loop progress (``dip.iterations`` /
``dip.oracle_queries``), search accounting (``search.rounds`` /
``search.energy_evaluations``), state-keyed synthesis-cache traffic
(``synth_cache.prefix_hits`` / ``prefix_misses`` / ``steps_saved`` /
``steps_executed``) and artifact-cache traffic (``artifact_cache.hits`` /
``misses`` / ``writes``).  The canonical name list lives in
``docs/observability.md``.

The registry is deliberately dumb and cheap: metrics are plain attribute
adds behind one dict lookup, instrumentation points sit *outside* hot
loops (the CDCL solver folds its private stats dict in once per ``solve``
call, never per propagation), and there is no locking because the registry
is process-local — cross-process aggregation happens at the span layer
(:mod:`repro.obs.trace`), where every span snapshots the counters on entry
and records the deltas on close::

    >>> registry = MetricsRegistry()
    >>> registry.counter("dip.iterations").inc()
    >>> registry.counter("dip.iterations").inc(2)
    >>> registry.counters()["dip.iterations"]
    3
    >>> registry.histogram("stage.elapsed_s").observe(0.5)
    >>> registry.snapshot()["stage.elapsed_s.count"]
    1
"""

from __future__ import annotations

from typing import Optional


class Counter:
    """Monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Last-write-wins numeric metric (pool sizes, cache entry counts)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Streaming summary of observed values (count / sum / min / max)."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Create-or-get registry of named metrics for one process.

    A name registered as one kind cannot be re-registered as another —
    that is always an instrumentation bug, surfaced immediately.
    """

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def _check_unique(self, name: str, own: dict) -> None:
        for family in (self._counters, self._gauges, self._histograms):
            if family is not own and name in family:
                raise ValueError(
                    f"metric {name!r} already registered as a different kind"
                )

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            self._check_unique(name, self._counters)
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            self._check_unique(name, self._gauges)
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            self._check_unique(name, self._histograms)
            metric = self._histograms[name] = Histogram(name)
        return metric

    def counters(self) -> dict[str, int]:
        """Current counter values (the snapshot spans diff on close)."""
        return {name: c.value for name, c in self._counters.items()}

    def snapshot(self) -> dict[str, float]:
        """Every metric flattened to ``name -> number`` (histograms expand
        to ``.count`` / ``.sum`` / ``.min`` / ``.max`` / ``.mean``)."""
        flat: dict[str, float] = {}
        for name, counter in self._counters.items():
            flat[name] = counter.value
        for name, gauge in self._gauges.items():
            flat[name] = gauge.value
        for name, histogram in self._histograms.items():
            flat[f"{name}.count"] = histogram.count
            flat[f"{name}.sum"] = histogram.total
            if histogram.count:
                flat[f"{name}.min"] = histogram.min
                flat[f"{name}.max"] = histogram.max
                flat[f"{name}.mean"] = histogram.mean
        return flat

    def reset(self) -> None:
        """Zero every metric (tests; a fresh run in a reused process)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


#: The process-local default registry every instrumentation point uses.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return REGISTRY


def counter(name: str) -> Counter:
    return REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    return REGISTRY.gauge(name)


def histogram(name: str) -> Histogram:
    return REGISTRY.histogram(name)


def inc(name: str, amount: int = 1) -> None:
    """One-line counter increment — the common instrumentation call."""
    REGISTRY.counter(name).inc(amount)
