"""Telemetry subsystem: metrics registry, spans, worker spans, CLI.

The acceptance property PRs rely on: with tracing enabled, the counter
deltas carried by the ``stage`` spans of a parallel grid run — including
spans emitted from pool worker processes — exactly equal the numbers the
pipeline reports through ``RunResult`` details.
"""

from __future__ import annotations

import json
import logging
import os

import pytest

import repro.sat.solver as solver_mod
from repro.attacks.sat_attack import SatAttack, oracle_from_key
from repro.circuits import load_iscas85
from repro.cli import main
from repro.core.almost import AlmostConfig, AlmostDefense
from repro.locking import lock_rll
from repro.obs.logs import configure_cli_logging, get_logger
from repro.obs.metrics import MetricsRegistry, REGISTRY, inc
from repro.obs.trace import (
    NullTracer,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)
from repro.pipeline import (
    AttackSpec,
    BenchmarkSpec,
    ExperimentSpec,
    LockSpec,
    Runner,
    SynthSpec,
)
from repro.reporting.sat import SatAttackRecord, render_sat_attack_table
from repro.reporting.trace import (
    build_span_tree,
    load_trace,
    render_span_tree,
    render_trace_hotspots,
)
from repro.utils.pool import WorkerPool


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Each test starts from a zeroed registry and the NullTracer."""
    REGISTRY.reset()
    set_tracer(None)
    yield
    REGISTRY.reset()
    set_tracer(None)


# -- metrics registry ------------------------------------------------------

class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("a").inc(4)
        registry.gauge("b").set(2.5)
        registry.histogram("c").observe(1.0)
        registry.histogram("c").observe(3.0)
        snap = registry.snapshot()
        assert snap["a"] == 5
        assert snap["b"] == 2.5
        assert snap["c.count"] == 2
        assert snap["c.sum"] == 4.0
        assert snap["c.min"] == 1.0
        assert snap["c.max"] == 3.0
        assert snap["c.mean"] == 2.0

    def test_counters_snapshot_only_counters(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.gauge("g").set(9)
        assert registry.counters() == {"a": 1}

    def test_cross_kind_name_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_reset(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.reset()
        assert registry.snapshot() == {}

    def test_module_level_inc(self):
        inc("test.widgets", 3)
        assert REGISTRY.counters()["test.widgets"] == 3


# -- spans -----------------------------------------------------------------

class TestTracer:
    def test_nesting_and_parent_links(self):
        tracer = Tracer()
        with tracer.span("run") as outer:
            with tracer.span("stage") as inner:
                assert inner.parent_id == outer.span_id
        names = [r["name"] for r in tracer.records]
        assert names == ["stage", "run"]  # close order
        assert tracer.records[1]["parent_id"] is None

    def test_span_metric_deltas(self):
        tracer = Tracer()
        inc("pre.existing", 10)
        with tracer.span("outer"):
            inc("work.done", 2)
            with tracer.span("inner"):
                inc("work.done", 5)
        inner, outer = tracer.records
        assert inner["metrics"] == {"work.done": 5}
        assert outer["metrics"] == {"work.done": 7}
        assert "pre.existing" not in outer["metrics"]

    def test_span_attrs_and_set(self):
        tracer = Tracer()
        with tracer.span("s", fixed=1) as span:
            span.set(found=True)
        assert tracer.records[0]["attrs"] == {"fixed": 1, "found": True}

    def test_error_recorded(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        assert tracer.records[0]["attrs"]["error"] == "ValueError"

    def test_use_tracer_restores(self):
        tracer = Tracer()
        assert isinstance(get_tracer(), NullTracer)
        with use_tracer(tracer):
            assert get_tracer() is tracer
        assert isinstance(get_tracer(), NullTracer)

    def test_null_tracer_noops(self):
        null = NullTracer()
        with null.span("anything", attr=1) as span:
            span.set(more=2)
        null.adopt([{"parent_id": None}])
        assert null.records == ()
        null.flush()
        null.close()

    def test_jsonl_sink_roundtrip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with Tracer(path) as tracer, use_tracer(tracer):
            with tracer.span("run"):
                with tracer.span("stage", stage="lock"):
                    inc("sat.conflicts", 3)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "header"
        records = load_trace(path)
        assert [r["name"] for r in records] == ["stage", "run"]
        roots = build_span_tree(records)
        assert len(roots) == 1 and roots[0]["name"] == "run"
        assert roots[0]["children"][0]["metrics"] == {"sat.conflicts": 3}

    def test_empty_trace_still_writes_header(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        with Tracer(path):
            pass
        assert json.loads(path.read_text().splitlines()[0])["schema"] >= 1


# -- worker spans return with task results --------------------------------

def _worker_task(_index):
    with get_tracer().span("worker.task"):
        inc("worker.widgets", 2)
    return os.getpid()


def _failing_task(_index):
    with get_tracer().span("worker.fails"):
        raise ValueError("boom")


def _recipe_accuracy(recipe) -> float:
    """Module-level (picklable) pseudo-accuracy, distinct per recipe."""
    return len(set(recipe.steps)) / 10.0


class TestWorkerBridge:
    def test_worker_spans_reach_parent(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with tracer.span("run") as run_span:
                with WorkerPool(2) as pool:
                    pids, interrupted = pool.run(_worker_task, range(4))
        assert not interrupted
        worker_records = [
            r for r in tracer.records if r["name"] == "worker.task"
        ]
        assert len(worker_records) == 4
        assert all(pid != os.getpid() for pid in pids)
        for record in worker_records:
            assert record["pid"] != os.getpid()
            assert record["metrics"] == {"worker.widgets": 2}
            # Worker roots hang off the span open when results arrive.
            assert record["parent_id"] == run_span.span_id

    def test_failing_task_span_reaches_parent(self):
        tracer = Tracer()
        with use_tracer(tracer), WorkerPool(2) as pool:
            with pytest.raises(ValueError, match="boom"):
                pool.run(_failing_task, [0])
        [record] = [r for r in tracer.records if r["name"] == "worker.fails"]
        assert record["pid"] != os.getpid()
        assert record["attrs"]["error"] == "ValueError"

    def test_pool_search_evals_nest_under_rounds(self):
        tracer = Tracer()
        config = AlmostConfig(
            sa_iterations=3, seed=1, strategy="pt", chains=4, jobs=2,
            stop_margin=-1.0,
        )
        with use_tracer(tracer):
            AlmostDefense(_recipe_accuracy, config).generate_recipe()
        nodes = {r["span_id"]: r for r in tracer.records}
        evals = [r for r in tracer.records if r["name"] == "search.eval"]
        assert len(evals) == 4 * (1 + 3)
        assert all(r["pid"] != os.getpid() for r in evals)
        # Only the bootstrap batch, scored before any round opens, is
        # left without a parent.
        parents = [r["parent_id"] for r in evals]
        assert parents.count(None) == 4
        for parent in filter(None, parents):
            assert nodes[parent]["name"] == "search.round"

    def test_buffered_records_written_once(self, tmp_path):
        path = tmp_path / "pool.jsonl"
        with Tracer(path) as tracer, use_tracer(tracer):
            with tracer.span("before"):
                pass
            tracer.event("buffered")
            # Both records sit in the buffer while the workers fork.
            assert len(tracer.records) == 2
            with WorkerPool(2) as pool:
                pool.run(_worker_task, range(4))
        names = [r["name"] for r in load_trace(path)]
        assert names.count("before") == 1
        assert names.count("buffered") == 1
        assert names.count("worker.task") == 4


# -- solver restarts surfaced end to end ----------------------------------

class TestRestartsSurfaced:
    def test_restarts_in_attack_details_and_record(self, monkeypatch):
        # Force frequent restarts so even quick-scale instances hit them.
        monkeypatch.setattr(solver_mod, "_RESTART_BASE", 2)
        locked = lock_rll(
            load_iscas85("c432", scale="quick"), key_size=8, seed=0
        )
        result = SatAttack().attack(
            locked.netlist, oracle_from_key(locked.netlist, locked.key),
            true_key=locked.key,
        )
        solver_stats = result.details["solver"]
        assert solver_stats["restarts"] > 0
        # Per-iteration trace entries carry the restart deltas too.
        assert sum(
            entry["restarts"] for entry in result.details["trace"]
        ) > 0
        record = SatAttackRecord.from_result("c432", result)
        assert record.restarts == solver_stats["restarts"]
        table = render_sat_attack_table([record])
        assert "restarts" in table

    def test_registry_counts_restarts(self, monkeypatch):
        monkeypatch.setattr(solver_mod, "_RESTART_BASE", 2)
        locked = lock_rll(
            load_iscas85("c432", scale="quick"), key_size=8, seed=0
        )
        SatAttack().attack(
            locked.netlist, oracle_from_key(locked.netlist, locked.key)
        )
        assert REGISTRY.counters().get("sat.restarts", 0) > 0


# -- acceptance: parallel grid spans match RunResult ----------------------

def _two_cell_spec() -> ExperimentSpec:
    return ExperimentSpec(
        name="obs-accept",
        benchmarks=(BenchmarkSpec(name="c432"), BenchmarkSpec(name="c499")),
        lock=LockSpec(locker="rll", key_size=8, seed=0),
        synth=SynthSpec(recipe="none"),
        attacks=(AttackSpec("sat", params={"max_iterations": 128}),),
    )


class TestGridAcceptance:
    def test_worker_stage_spans_match_run_details(self, tmp_path):
        path = tmp_path / "grid.jsonl"
        runner = Runner(workdir=tmp_path / "cache", jobs=2)
        with Tracer(path) as tracer, use_tracer(tracer):
            run = runner.run(_two_cell_spec())
        records = load_trace(path)
        by_name = {}
        for record in records:
            by_name.setdefault(record["name"], []).append(record)
        assert len(by_name["run"]) == 1
        assert len(by_name["cell"]) == 2
        # Cells executed in pool workers, not the parent process.
        assert all(
            r["pid"] != os.getpid() for r in by_name["cell"]
        )
        # Spans arrived for every stage of both cells.
        attack_spans = [
            r for r in by_name["stage"] if r["attrs"]["stage"] == "attack"
        ]
        assert len(attack_spans) == 2
        nodes = {r["span_id"]: r for r in records}
        for span in attack_spans:
            cell = nodes[span["parent_id"]]
            details = run.cell(
                cell["attrs"]["benchmark"], "sat"
            ).details["attack"]
            assert span["metrics"]["dip.iterations"] == details["iterations"]
            assert (
                span["metrics"]["dip.oracle_queries"]
                == details["oracle_queries"]
            )
            for counter in ("conflicts", "decisions", "propagations",
                            "restarts"):
                assert (
                    span["metrics"].get(f"sat.{counter}", 0)
                    == details["solver"][counter]
                )
            # The stage log's fingerprint is the span's fingerprint attr.
            stage_log = [
                entry
                for entry in run.cell(
                    cell["attrs"]["benchmark"], "sat"
                ).stages
                if entry["stage"] == "attack"
            ]
            assert span["attrs"]["fingerprint"] == stage_log[0]["fingerprint"]
            assert span["attrs"]["cached"] is False

    def test_disabled_tracer_leaves_no_records(self, tmp_path):
        runner = Runner(workdir=tmp_path / "cache", jobs=1)
        run = runner.run(_two_cell_spec())
        assert isinstance(get_tracer(), NullTracer)
        assert len(run.cells) == 2


# -- CLI surface -----------------------------------------------------------

class TestCli:
    def test_grid_trace_then_render(self, tmp_path, capsys):
        trace_path = tmp_path / "run.jsonl"
        assert main([
            "grid", "--benchmarks", "c432", "--attacks", "sat",
            "--key-size", "8", "--recipe", "none", "--max-iterations", "64",
            "--workdir", str(tmp_path / "cache"),
            "--trace", str(trace_path),
        ]) == 0
        out = capsys.readouterr().out
        assert f"wrote trace to {trace_path}" in out
        assert main(["trace", str(trace_path)]) == 0
        rendered = capsys.readouterr().out
        assert "run [" in rendered
        assert "attack.sat" in rendered
        assert "Top hotspots" in rendered

    def test_trace_subcommand_rejects_garbage(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert main(["trace", str(missing)]) == 2
        empty = tmp_path / "empty.jsonl"
        empty.write_text("not json\n")
        assert main(["trace", str(empty)]) == 2
        capsys.readouterr()

    def test_verbose_and_quiet_flags(self, tmp_path, capsys):
        out = tmp_path / "c.bench"
        assert main(["-v", "gen", "c432", "--out", str(out)]) == 0
        assert main(["-q", "gen", "c432", "--out", str(out)]) == 0
        capsys.readouterr()


# -- logging hierarchy -----------------------------------------------------

class TestLogging:
    def test_get_logger_roots_names(self):
        assert get_logger("repro.pipeline.runner").name == (
            "repro.pipeline.runner"
        )
        assert get_logger("synth.engine").name == "repro.synth.engine"
        assert get_logger("repro").name == "repro"

    def test_package_root_has_null_handler(self):
        root = logging.getLogger("repro")
        assert any(
            isinstance(h, logging.NullHandler) for h in root.handlers
        )

    def test_configure_cli_logging_levels(self):
        assert configure_cli_logging() == logging.WARNING
        assert configure_cli_logging(verbose=1) == logging.INFO
        assert configure_cli_logging(verbose=2) == logging.DEBUG
        assert configure_cli_logging(quiet=True) == logging.ERROR
        root = logging.getLogger("repro")
        cli_handlers = [
            h for h in root.handlers if getattr(h, "_repro_cli", False)
        ]
        # Repeated calls replace the handler, never stack duplicates.
        assert len(cli_handlers) == 1
        root.removeHandler(cli_handlers[0])


class TestTraceSinkCollision:
    def test_two_tracers_never_clobber_each_other(self, tmp_path):
        """Same --trace path twice: the second sink moves to a suffixed
        sibling instead of truncating the first (O_EXCL creation)."""
        path = tmp_path / "trace.jsonl"
        first = Tracer(str(path))
        with first.span("alpha"):
            pass
        first.close()
        second = Tracer(str(path))
        with second.span("beta"):
            pass
        second.close()
        assert first.path == str(path)
        assert second.path == str(tmp_path / "trace-1.jsonl")
        third = Tracer(str(path))
        third.flush()
        third.close()
        assert third.path == str(tmp_path / "trace-2.jsonl")
        # Each file holds its own spans, untouched by the others.
        names = {
            p.name: [r.get("name") for r in load_trace(p)
                     if r.get("kind") == "span"]
            for p in sorted(tmp_path.glob("trace*.jsonl"))
        }
        assert names["trace.jsonl"] == ["alpha"]
        assert names["trace-1.jsonl"] == ["beta"]
        assert names["trace-2.jsonl"] == []

    def test_suffix_respects_extensionless_paths(self, tmp_path):
        path = tmp_path / "tracefile"
        for expected in ("tracefile", "tracefile-1"):
            tracer = Tracer(str(path))
            tracer.flush()
            tracer.close()
            assert tracer.path == str(tmp_path / expected)

    def test_cli_reports_the_actual_sink_path(self, tmp_path, capsys):
        design = tmp_path / "c432.bench"
        main(["gen", "c432", "--out", str(design)])
        capsys.readouterr()
        (tmp_path / "t.jsonl").write_text("occupied\n")
        # --key missing exits 2 before any work, but the trace context
        # still closes — and must report the sink it actually wrote
        # (the suffixed sibling, since t.jsonl was taken).
        assert main([
            "sat-attack", str(design), "--recipe", "none",
            "--trace", str(tmp_path / "t.jsonl"),
            "--workdir", str(tmp_path / "cache"),
        ]) == 2
        out = capsys.readouterr().out
        assert f"wrote trace to {tmp_path / 't-1.jsonl'}" in out
        assert (tmp_path / "t.jsonl").read_text() == "occupied\n"
