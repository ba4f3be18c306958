"""Outside-in layer trace: wrap each layer's public calls, record spans.

The benchmark measures the program from the outside.  :class:`LayerTrace`
replaces call-granular functions and methods of each layer with timing
wrappers, keeps every span in memory (name, parent, start, end) and
restores the originals on :meth:`LayerTrace.remove`.  A function is
patched wherever a loaded ``repro`` module binds it, so callers that
imported it by name are caught too.  A target that no longer exists is
listed in :attr:`LayerTrace.missing` and the run carries on.

Nothing here depends on the program's own telemetry, so a change to that
telemetry cannot change how the benchmark measures the program.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Optional

SYNTH_PASSES = ("balance", "rewrite", "rewrite_z", "refactor", "refactor_z",
                "resub", "resub_z")
ATTACKS = ("scope", "redundancy", "omla", "sat", "appsat")


class SpanRecorder:
    """In-memory spans; each row is ``[name, parent_index, start, end]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def peak(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def self_times(self, since: int = 0) -> dict[str, list]:
        """``name -> [calls, self seconds]`` over spans from ``since`` on.

        Self time is a span's duration minus its direct children's
        durations; calls on one thread nest strictly, so the children
        never overlap.
        """
        child_time = defaultdict(float)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for index in range(since, len(self.spans)):
            name, _parent, start, end = self.spans[index]
            row = table[name]
            row[0] += 1
            row[1] += (end - start) - child_time[index]
        return dict(table)

    def rows(self) -> list[dict]:
        return [
            {"name": name, "parent": parent, "start": start, "end": end}
            for name, parent, start, end in self.spans
        ]


@dataclass
class Target:
    """One wrapped call: ``module`` + ``attr`` (``func`` or ``Class.method``).

    ``span`` names the span (a string, or a function of the call's
    arguments); ``None`` counts calls without a span.  ``before`` takes the
    arguments and returns a state object; ``after`` receives the recorder,
    the arguments, the result and that state.
    """

    layer: str
    module: str
    attr: str
    span: Any
    before: Optional[Callable] = None
    after: Optional[Callable] = None


def _pass_name(args, kwargs) -> str:
    step = kwargs.get("name", args[1] if len(args) > 1 else "?")
    return "synth." + step.replace(" -", "_")


def _ands(args, kwargs):
    return args[0].num_ands()


def _ands_removed(rec, args, kwargs, result, before):
    rec.count(_pass_name(args, kwargs) + ".ands_removed", before - result.num_ands())


def _lookup_done(rec, args, kwargs, result, state):
    rec.count("synth_cache.lookups")
    if result[1] is not None:
        rec.count("synth_cache.hits")


def _store_done(rec, args, kwargs, result, state):
    rec.peak("synth_cache.entries", len(args[0]))


def _memo_done(rec, args, kwargs, result, state):
    rec.count("proxy.memo_lookups")
    if result is not None:
        rec.count("proxy.memo_hits")


def _graphs(rec, args, kwargs, result, state):
    rec.count("featurize.graphs", len(result))


def _solver_stats(args, kwargs):
    return dict(args[0].stats)


def _solver_delta(rec, args, kwargs, result, before):
    for key in ("conflicts", "propagations"):
        rec.count(f"sat.{key}", args[0].stats[key] - before.get(key, 0))


def _observed(rec, args, kwargs, result, state):
    rec.count("dip.iterations")


def _queried(rec, args, kwargs, result, state):
    rec.count("oracle.queries", int(args[1].shape[0]))


def _stages_done(rec, args, kwargs, result, state):
    _artifacts, log = result
    for entry in log:
        rec.count("pipeline.stages_cached" if entry["cached"]
                  else "pipeline.stages_executed")


def _put_done(rec, args, kwargs, result, state):
    if result:
        rec.count("pipeline.cache.bytes_written",
                  args[0].path_for(args[1]).stat().st_size)


def _searched(rec, args, kwargs, result, state):
    rec.count("search.evaluations", result.energy_evaluations)


def _attack_targets() -> list[Target]:
    where = {
        "scope": ("repro.attacks.scope", "ScopeAttack"),
        "redundancy": ("repro.attacks.redundancy", "RedundancyAttack"),
        "omla": ("repro.attacks.omla", "OmlaAttack"),
        "sat": ("repro.attacks.sat_attack", "SatAttack"),
        "appsat": ("repro.attacks.appsat", "AppSatAttack"),
    }
    return [
        Target("attacks", module, f"{cls}.attack", f"attack.{name}")
        for name, (module, cls) in where.items()
    ]


TARGETS: list[Target] = [
    Target("synth", "repro.synth.engine", "apply_transform", _pass_name,
           _ands, _ands_removed),
    Target("synth.cache", "repro.synth.cache", "SynthCache.lookup",
           "synth_cache", after=_lookup_done),
    Target("synth.cache", "repro.synth.cache", "SynthCache.store",
           "synth_cache", after=_store_done),
    Target("mapping", "repro.mapping.mapper", "map_aig", "mapping"),
    Target("attacks.subgraph", "repro.attacks.subgraph", "extract_localities",
           "featurize", after=_graphs),
    Target("ml", "repro.ml.gnn", "GinClassifier.predict", "ml.forward"),
    Target("ml", "repro.ml.gnn", "GinClassifier.predict_proba", "ml.forward"),
    Target("ml", "repro.ml.train", "train_classifier", "ml.train"),
    Target("core.proxy", "repro.core.proxy", "ProxyModel._cache_get", None,
           after=_memo_done),
    Target("locking", "repro.locking.rll", "lock_rll", "locking"),
    Target("locking", "repro.locking.relock", "relock", "locking"),
    Target("locking", "repro.defenses", "lock_scheme", "locking"),
    Target("locking", "repro.defenses.antisat", "lock_antisat", "locking"),
    Target("locking", "repro.defenses.sarlock", "lock_sarlock", "locking"),
    *_attack_targets(),
    Target("testability", "repro.testability.faults", "fault_simulate",
           "faultsim"),
    Target("sat", "repro.sat.solver", "CdclSolver.solve", "sat.solve",
           _solver_stats, _solver_delta),
    Target("attacks.sat_attack", "repro.attacks.sat_attack",
           "DipLoop.find_dip", "dip.find"),
    Target("attacks.sat_attack", "repro.attacks.sat_attack",
           "DipLoop.observe", "dip.observe", after=_observed),
    Target("attacks.sat_attack", "repro.attacks.sat_attack",
           "DipLoop.query_oracle", "oracle", after=_queried),
    Target("aig.simulate", "repro.aig.simulate", "simulate_words", "sim"),
    Target("aig.simulate", "repro.aig.simulate", "simulate_lanes", "sim"),
    Target("pipeline", "repro.pipeline.runner", "execute_stages",
           "pipeline.stages", after=_stages_done),
    Target("pipeline", "repro.pipeline.cache", "ArtifactCache.get",
           "pipeline.cache"),
    Target("pipeline", "repro.pipeline.cache", "ArtifactCache.put",
           "pipeline.cache", after=_put_done),
    Target("core.search", "repro.core.search.driver", "run_search",
           "search", after=_searched),
]


def _wrapper(recorder: SpanRecorder, target: Target, original):
    span, before, after = target.span, target.before, target.after

    @functools.wraps(original)
    def wrapped(*args, **kwargs):
        state = before(args, kwargs) if before is not None else None
        if span is None:
            result = original(*args, **kwargs)
        else:
            index = recorder.open(span(args, kwargs) if callable(span) else span)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(index)
        if after is not None:
            after(recorder, args, kwargs, result, state)
        return result

    return wrapped


def _repro_bindings():
    """``(module, name, value)`` for every global of every loaded repro module."""
    for name, loaded in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in list(vars(loaded).items()):
                yield loaded, attr, value


class LayerTrace:
    """Installs the wrappers of :data:`TARGETS`; :meth:`remove` undoes them."""

    def __init__(self, recorder: SpanRecorder, targets=None):
        self.recorder = recorder
        self.targets = TARGETS if targets is None else targets
        self.missing: list[str] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._originals: dict[int, Any] = {}

    def install(self) -> "LayerTrace":
        self.missing = []
        for target in self.targets:
            try:
                self._install(target)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{target.layer}: {target.module}.{target.attr}")
        return self

    def _install(self, target: Target) -> None:
        module = importlib.import_module(target.module)
        owner_name, _, method = target.attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[method]
            self._patch(owner, method, _wrapper(self.recorder, target, original))
            return
        original = getattr(module, method)
        wrapped = _wrapper(self.recorder, target, original)
        for loaded, attr, value in _repro_bindings():
            if value is original:
                self._patch(loaded, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        self._originals[id(value)] = original
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        # A module imported while the trace was on may have bound a
        # wrapper by name; hand it the original too.
        for loaded, attr, value in _repro_bindings():
            if id(value) in self._originals:
                setattr(loaded, attr, self._originals[id(value)])
        self._patches = []
        self._originals = {}

    def __enter__(self) -> "LayerTrace":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.remove()


def layer_metrics(recorder: SpanRecorder) -> dict[str, float]:
    """The per-layer metric table from recorded spans and counters."""
    times = recorder.self_times()
    counters = recorder.counters

    def calls(name):
        return times.get(name, [0, 0.0])[0]

    def self_s(name):
        return times.get(name, [0, 0.0])[1]

    def ratio(part, whole):
        return counters[part] / counters[whole] if counters[whole] else 0.0

    metrics: dict[str, float] = {}
    for step in SYNTH_PASSES:
        span = f"synth.{step}"
        metrics[f"{span}.calls"] = calls(span)
        metrics[f"{span}.self_s"] = self_s(span)
        metrics[f"{span}.ands_removed"] = counters[f"{span}.ands_removed"]
    metrics["synth.self_s"] = sum(self_s(f"synth.{s}") for s in SYNTH_PASSES)
    metrics["synth_cache.lookups"] = counters["synth_cache.lookups"]
    metrics["synth_cache.hit_rate"] = ratio("synth_cache.hits",
                                            "synth_cache.lookups")
    metrics["synth_cache.self_s"] = self_s("synth_cache")
    metrics["synth_cache.entries"] = recorder.maxima.get("synth_cache.entries", 0)
    metrics["mapping.calls"] = calls("mapping")
    metrics["mapping.self_s"] = self_s("mapping")
    metrics["featurize.calls"] = calls("featurize")
    metrics["featurize.graphs"] = counters["featurize.graphs"]
    metrics["featurize.self_s"] = self_s("featurize")
    for name in ("ml.forward", "ml.train"):
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.self_s"] = self_s(name)
    metrics["proxy.memo_hit_rate"] = ratio("proxy.memo_hits",
                                           "proxy.memo_lookups")
    metrics["locking.calls"] = calls("locking")
    metrics["locking.self_s"] = self_s("locking")
    for name in ATTACKS:
        metrics[f"attack.{name}.calls"] = calls(f"attack.{name}")
        metrics[f"attack.{name}.self_s"] = self_s(f"attack.{name}")
    metrics["faultsim.calls"] = calls("faultsim")
    metrics["faultsim.self_s"] = self_s("faultsim")
    metrics["sat.solve.calls"] = calls("sat.solve")
    metrics["sat.solve.self_s"] = self_s("sat.solve")
    metrics["sat.conflicts"] = counters["sat.conflicts"]
    metrics["sat.propagations"] = counters["sat.propagations"]
    metrics["dip.iterations"] = counters["dip.iterations"]
    metrics["dip.find.self_s"] = self_s("dip.find")
    metrics["oracle.queries"] = counters["oracle.queries"]
    metrics["oracle.self_s"] = self_s("oracle")
    metrics["sim.calls"] = calls("sim")
    metrics["sim.self_s"] = self_s("sim")
    metrics["pipeline.stages_executed"] = counters["pipeline.stages_executed"]
    metrics["pipeline.stages_cached"] = counters["pipeline.stages_cached"]
    metrics["pipeline.cache.self_s"] = self_s("pipeline.cache")
    metrics["pipeline.cache.bytes_written"] = counters["pipeline.cache.bytes_written"]
    metrics["search.evaluations"] = counters["search.evaluations"]
    return metrics


ALL = ("defend_almost", "attack_grid", "query_grid")

#: Which workloads each layer metric should move on, and which it should
#: leave at zero (the layer is bypassed there).
PREDICTIONS: list[tuple[str, tuple, tuple]] = [
    ("synth.self_s", ("defend_almost", "attack_grid"), ("query_grid",)),
    ("synth_cache.lookups", ("defend_almost",), ("attack_grid", "query_grid")),
    ("mapping.calls", ("defend_almost", "attack_grid"), ("query_grid",)),
    ("featurize.calls", ("defend_almost", "attack_grid"), ("query_grid",)),
    ("ml.forward.calls", ("defend_almost", "attack_grid"), ("query_grid",)),
    ("ml.train.calls", ("defend_almost", "attack_grid"), ("query_grid",)),
    ("locking.calls", ALL, ()),
    *[(f"attack.{name}.calls", ("attack_grid",), ("defend_almost", "query_grid"))
      for name in ("scope", "redundancy", "omla")],
    *[(f"attack.{name}.calls", ("query_grid",), ("defend_almost", "attack_grid"))
      for name in ("sat", "appsat")],
    ("faultsim.calls", ("attack_grid",), ("defend_almost", "query_grid")),
    ("sat.solve.calls", ("query_grid",), ("defend_almost", "attack_grid")),
    ("dip.iterations", ("query_grid",), ("defend_almost", "attack_grid")),
    ("sim.calls", ("query_grid",), ("attack_grid",)),
    ("pipeline.stages_executed", ("attack_grid", "query_grid"), ("defend_almost",)),
    ("search.evaluations", ("defend_almost",), ("attack_grid", "query_grid")),
]


def verdicts(workload: str, metrics: dict) -> list[tuple[str, bool]]:
    """Each prediction that concerns ``workload``, with whether it held."""
    out = []
    for metric, fires, silent in PREDICTIONS:
        if workload in fires:
            out.append((f"{metric} > 0", metrics[metric] > 0))
        elif workload in silent:
            out.append((f"{metric} == 0", metrics[metric] == 0))
    if workload == "defend_almost":
        out.append(("synth.timed_share > 0.5", metrics["synth.timed_share"] > 0.5))
    return out
