"""Tests for the experiment pipeline: specs, registry, cache, runner, CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import CacheError, PipelineError, SpecError
from repro.pipeline import (
    ArtifactCache,
    AttackSpec,
    BenchmarkSpec,
    DefenseSpec,
    ExperimentSpec,
    LockSpec,
    ReportSpec,
    RunResult,
    Runner,
    Stage,
    SynthSpec,
    available,
    execute_stages,
    fingerprint,
    register,
    registered,
    run_experiment,
    topological_order,
    unregister,
)


def small_spec(**overrides) -> ExperimentSpec:
    """A cheap 1×2 grid (no ML training) used across the tests."""
    fields = dict(
        name="unit",
        benchmarks=(BenchmarkSpec(name="c432"),),
        lock=LockSpec(locker="rll", key_size=6, seed=7),
        attacks=(
            AttackSpec("scope"),
            AttackSpec("redundancy", params={"num_patterns": 24, "seed": 1}),
        ),
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


# -- spec layer ----------------------------------------------------------

class TestSpecs:
    def test_json_round_trip(self):
        spec = small_spec(defense=DefenseSpec(iterations=3))
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_toml_round_trip(self):
        spec = small_spec(
            report=ReportSpec(format="json"),
            synth=SynthSpec(recipe="b;rw;rfz", verify="sim"),
        )
        assert ExperimentSpec.from_toml(spec.to_toml()) == spec

    def test_file_round_trip_both_formats(self, tmp_path):
        spec = small_spec()
        for filename in ("spec.toml", "spec.json"):
            path = tmp_path / filename
            spec.dump(path)
            assert ExperimentSpec.load(path) == spec

    def test_unknown_suffix_rejected(self, tmp_path):
        spec = small_spec()
        with pytest.raises(SpecError, match="suffix"):
            spec.dump(tmp_path / "spec.yaml")

    def test_unknown_fields_rejected(self):
        with pytest.raises(SpecError, match="unknown"):
            ExperimentSpec.from_dict(
                {"benchmarks": [{"name": "c432"}], "lokc": {}}
            )
        with pytest.raises(SpecError, match="unknown"):
            BenchmarkSpec.from_dict({"name": "c432", "sclae": "quick"})

    def test_type_errors_are_spec_errors(self):
        with pytest.raises(SpecError, match="integer"):
            LockSpec.from_dict({"key_size": "eight"})
        with pytest.raises(SpecError, match="string"):
            SynthSpec.from_dict({"recipe": 42})

    def test_benchmark_needs_name_xor_path(self):
        with pytest.raises(SpecError):
            BenchmarkSpec()
        with pytest.raises(SpecError):
            BenchmarkSpec(name="c432", path="x.bench")

    def test_validation_catches_bad_values(self):
        with pytest.raises(SpecError):
            LockSpec(key="01x0")
        with pytest.raises(SpecError):
            SynthSpec(verify="maybe")
        with pytest.raises(SpecError):
            ExperimentSpec(benchmarks=())

    def test_invalid_text_is_spec_error(self):
        with pytest.raises(SpecError, match="JSON"):
            ExperimentSpec.from_json("{nope")
        with pytest.raises(SpecError, match="TOML"):
            ExperimentSpec.from_toml("= broken =")

    def test_duplicate_benchmark_labels_rejected(self):
        with pytest.raises(SpecError, match="unique"):
            small_spec(
                benchmarks=(
                    BenchmarkSpec(name="c432"), BenchmarkSpec(name="c432"),
                )
            )
        # Seed-decorated replicas of one circuit are fine.
        spec = small_spec(
            benchmarks=(
                BenchmarkSpec(name="c432"), BenchmarkSpec(name="c432", seed=1),
            )
        )
        assert [b.label for b in spec.benchmarks] == ["c432", "c432#s1"]

    def test_duplicate_attack_labels_rejected_and_sweep_labels_work(self):
        with pytest.raises(SpecError, match="AttackSpec.label"):
            small_spec(
                attacks=(
                    AttackSpec("redundancy", params={"num_patterns": 16}),
                    AttackSpec("redundancy", params={"num_patterns": 64}),
                )
            )
        spec = small_spec(
            attacks=(
                AttackSpec("redundancy", params={"num_patterns": 16},
                           label="redundancy-16"),
                AttackSpec("redundancy", params={"num_patterns": 64},
                           label="redundancy-64"),
            )
        )
        assert [a.cell_label for a in spec.attacks] == [
            "redundancy-16", "redundancy-64",
        ]
        assert ExperimentSpec.from_toml(spec.to_toml()) == spec

    def test_cells_cross_product(self):
        spec = small_spec(
            benchmarks=(BenchmarkSpec(name="c432"), BenchmarkSpec(name="c499"))
        )
        labels = [(b.label, a.name) for b, a in spec.cells]
        assert labels == [
            ("c432", "scope"), ("c432", "redundancy"),
            ("c499", "scope"), ("c499", "redundancy"),
        ]


# -- registry layer ------------------------------------------------------

class TestRegistry:
    def test_builtins_registered(self):
        assert {"rll", "relock", "given", "none"} <= set(available("locker"))
        assert {"omla", "scope", "redundancy", "snapshot", "sail", "sat"} <= (
            set(available("attack"))
        )
        assert "almost" in available("defense")
        assert {"table", "json"} <= set(available("reporter"))

    def test_lookup_and_duplicate_errors(self):
        @register("reporter", "null")
        def null_reporter(run, spec):
            return ""

        try:
            assert registered("reporter", "null")
            with pytest.raises(PipelineError, match="duplicate"):
                register("reporter", "null")(lambda run, spec: "")
        finally:
            unregister("reporter", "null")
        assert not registered("reporter", "null")

    def test_unknown_lookups(self):
        from repro.pipeline import get

        with pytest.raises(PipelineError, match="available"):
            get("attack", "does-not-exist")
        with pytest.raises(PipelineError, match="kinds"):
            get("flavour", "vanilla")

    def test_runner_validates_against_registry(self, tmp_path):
        runner = Runner(workdir=tmp_path)
        with pytest.raises(PipelineError, match="unknown attack"):
            runner.run(small_spec(attacks=(AttackSpec("nope"),)))
        with pytest.raises(PipelineError, match="unknown locker"):
            runner.run(small_spec(lock=LockSpec(locker="wishful")))

    def test_unknown_attack_params_rejected(self, tmp_path):
        spec = small_spec(
            attacks=(AttackSpec("scope", params={"epochz": 3}),)
        )
        with pytest.raises(SpecError, match="epochz"):
            Runner(workdir=tmp_path).run(spec)


# -- cache layer ---------------------------------------------------------

class TestCache:
    def test_hit_miss_and_stats(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = fingerprint("stage", {"x": 1})
        assert cache.get(key, default=None) is None
        cache.put(key, {"answer": 42})
        assert cache.get(key) == {"answer": 42}
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["writes"] == 1

    def test_true_miss_raises(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        with pytest.raises(CacheError, match="miss"):
            cache.get("0" * 64)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = fingerprint("stage", {"x": 2})
        cache.put(key, [1, 2, 3])
        cache.path_for(key).write_bytes(b"not a pickle")
        assert cache.get(key, default="fresh") == "fresh"
        assert not cache.path_for(key).exists()

    def test_unpicklable_value_skips_cache(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.put("ab" * 32, lambda: None) is False

    def test_fingerprint_sensitivity(self):
        base = fingerprint("lock", {"key_size": 6}, ["dep"])
        assert base == fingerprint("lock", {"key_size": 6}, ["dep"])
        assert base != fingerprint("lock", {"key_size": 7}, ["dep"])
        assert base != fingerprint("lock", {"key_size": 6}, ["other"])

    def test_clear(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(fingerprint(1), "a")
        cache.put(fingerprint(2), "b")
        assert cache.clear() == 2
        assert cache.get(fingerprint(1), default=None) is None


# -- DAG machinery -------------------------------------------------------

class TestDag:
    @staticmethod
    def _stage(name, deps=(), fn=None, payload=None):
        return Stage(
            name=name,
            payload=payload or {},
            deps=tuple(deps),
            fn=fn or (lambda d: name),
        )

    def test_topological_order(self):
        stages = [
            self._stage("c", deps=("a", "b")),
            self._stage("b", deps=("a",)),
            self._stage("a"),
        ]
        assert [s.name for s in topological_order(stages)] == ["a", "b", "c"]

    def test_cycle_detected(self):
        stages = [
            self._stage("a", deps=("b",)),
            self._stage("b", deps=("a",)),
        ]
        with pytest.raises(PipelineError, match="cycle"):
            topological_order(stages)

    def test_unknown_dep_detected(self):
        with pytest.raises(PipelineError, match="unknown stage"):
            topological_order([self._stage("a", deps=("ghost",))])

    def test_execute_with_cache_skips_second_run(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        calls = []

        def make(name):
            def fn(deps):
                calls.append(name)
                return name

            return fn

        stages = [
            self._stage("a", fn=make("a")),
            self._stage("b", deps=("a",), fn=make("b")),
        ]
        _arts, log1 = execute_stages(stages, cache)
        _arts, log2 = execute_stages(stages, cache)
        assert calls == ["a", "b"]
        assert [e["cached"] for e in log1] == [False, False]
        assert [e["cached"] for e in log2] == [True, True]

    def test_payload_change_invalidates_downstream(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        stages = [
            self._stage("a", payload={"v": 1}),
            self._stage("b", deps=("a",)),
        ]
        execute_stages(stages, cache)
        changed = [
            self._stage("a", payload={"v": 2}),
            self._stage("b", deps=("a",)),
        ]
        _arts, log = execute_stages(changed, cache)
        assert [e["cached"] for e in log] == [False, False]

    def test_pool_workers_die_on_sigterm(self, tmp_path):
        """``Pool.terminate()`` must kill grid-cell workers, whatever the
        parent's SIGTERM handler (``Runner.run`` maps it to
        KeyboardInterrupt): each cell reports its worker's handler."""
        import os
        import signal

        register("attack", "sigterm_probe")(_sigterm_probe_attack)
        previous = signal.signal(signal.SIGTERM, lambda *_: None)
        try:
            spec = small_spec(
                attacks=(
                    AttackSpec("sigterm_probe", label="p1"),
                    AttackSpec("sigterm_probe", label="p2"),
                ),
                synth=SynthSpec(recipe="none"),
            )
            run = Runner(workdir=tmp_path, jobs=2).run(spec)
        finally:
            signal.signal(signal.SIGTERM, previous)
            unregister("attack", "sigterm_probe")
        probes = [cell.details["attack"] for cell in run.cells]
        assert len(probes) == 2
        assert all(probe["pid"] != os.getpid() for probe in probes)
        assert all(probe["sigterm_default"] for probe in probes)

    def test_source_edit_invalidates_cached_stages(self, tmp_path):
        """A synth edit misses the cache; a CLI edit does not."""
        import os
        import shutil
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = tmp_path / "src"
        shutil.copytree(
            Path(repro.__file__).parent, src / "repro",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        script = (
            "import sys\n"
            "from repro.pipeline import ArtifactCache, Stage, execute_stages\n"
            "stage = Stage('synth', {'v': 1}, (), lambda deps: 42)\n"
            "_arts, log = execute_stages([stage], ArtifactCache(sys.argv[1]))\n"
            "print(log[0]['cached'])\n"
        )

        def cached() -> bool:
            done = subprocess.run(
                [sys.executable, "-c", script, str(tmp_path / "cache")],
                env={**os.environ, "PYTHONPATH": str(src)},
                capture_output=True, text=True, check=True,
            )
            return done.stdout.strip() == "True"

        def append_comment(relative: str) -> None:
            path = src / "repro" / relative
            path.write_text(path.read_text() + "\n# edited\n")

        assert not cached()
        assert cached()
        append_comment("cli.py")
        assert cached()
        append_comment("synth/refactor.py")
        assert not cached()
        assert cached()


# -- end-to-end runner ---------------------------------------------------

class TestRunner:
    def test_grid_matches_hand_wired_path(self, tmp_path):
        from repro import load_iscas85, lock_rll, RESYN2, synthesize_and_map
        from repro.attacks import RedundancyAttack, ScopeAttack

        design = load_iscas85("c432", scale="quick", seed=0)
        locked = lock_rll(design, key_size=6, seed=7)
        netlist, _mapped = synthesize_and_map(locked.netlist, RESYN2)
        hand = {
            "scope": ScopeAttack().attack(netlist, locked.key),
            "redundancy": RedundancyAttack(num_patterns=24, seed=1).attack(
                netlist, locked.key
            ),
        }

        run = run_experiment(small_spec(), workdir=tmp_path)
        for name, result in hand.items():
            cell = run.cell("c432", name)
            assert cell.predicted_key == "".join(
                str(b) for b in result.predicted_bits
            )
            assert cell.accuracy == pytest.approx(result.accuracy)
            assert cell.key_size == 6

    def test_warm_run_hits_cache(self, tmp_path):
        spec = small_spec()
        cold = run_experiment(spec, workdir=tmp_path)
        warm = run_experiment(spec, workdir=tmp_path)
        assert cold.executed_stages > 0
        assert warm.executed_stages == 0
        assert warm.cached_stages == cold.executed_stages + cold.cached_stages
        assert [c.predicted_key for c in warm.cells] == [
            c.predicted_key for c in cold.cells
        ]

    def test_parallel_equals_serial(self, tmp_path):
        spec = small_spec(
            benchmarks=(BenchmarkSpec(name="c432"), BenchmarkSpec(name="c499"))
        )
        serial = run_experiment(spec, workdir=tmp_path / "serial")
        parallel = run_experiment(
            spec, workdir=tmp_path / "parallel", jobs=2
        )
        assert [(c.benchmark, c.attack, c.predicted_key)
                for c in parallel.cells] == [
            (c.benchmark, c.attack, c.predicted_key) for c in serial.cells
        ]

    def test_no_cache_mode(self, tmp_path):
        spec = small_spec()
        run_experiment(spec, workdir=tmp_path, use_cache=False)
        second = run_experiment(spec, workdir=tmp_path, use_cache=False)
        assert second.cached_stages == 0
        assert not any(tmp_path.iterdir())

    def test_run_result_json_round_trip(self, tmp_path):
        run = run_experiment(small_spec(), workdir=tmp_path)
        loaded = RunResult.from_json(run.to_json())
        assert loaded.cell("c432", "scope").predicted_key == (
            run.cell("c432", "scope").predicted_key
        )
        assert loaded.executed_stages == run.executed_stages
        path = tmp_path / "result.json"
        run.save(path)
        assert RunResult.load(path).name == run.name

    def test_missing_cell_lookup(self, tmp_path):
        run = run_experiment(small_spec(), workdir=tmp_path)
        with pytest.raises(PipelineError, match="no cell"):
            run.cell("c880", "scope")

    def test_path_benchmark_and_given_locker(self, tmp_path):
        from repro import load_iscas85, lock_rll
        from repro.netlist.bench_io import save_bench

        locked = lock_rll(
            load_iscas85("c432", scale="quick"), key_size=4, seed=3
        )
        bench_path = tmp_path / "locked.bench"
        save_bench(locked.netlist, bench_path)
        spec = ExperimentSpec(
            benchmarks=(BenchmarkSpec(path=str(bench_path)),),
            lock=LockSpec(locker="given", key=str(locked.key)),
            attacks=(AttackSpec("scope"),),
        )
        run = run_experiment(spec, workdir=tmp_path / "cache")
        cell = run.cell("locked", "scope")
        assert cell.key_size == 4
        assert cell.accuracy is not None

    def test_rll_on_prelocked_design_is_clean_error(self, tmp_path):
        from repro import load_iscas85, lock_rll
        from repro.netlist.bench_io import save_bench

        locked = lock_rll(
            load_iscas85("c432", scale="quick"), key_size=4, seed=3
        )
        bench_path = tmp_path / "locked.bench"
        save_bench(locked.netlist, bench_path)
        spec = ExperimentSpec(
            benchmarks=(BenchmarkSpec(path=str(bench_path)),),
            lock=LockSpec(locker="rll", key_size=8),
            attacks=(AttackSpec("scope"),),
        )
        with pytest.raises(PipelineError, match="'given'"):
            run_experiment(spec, workdir=tmp_path / "cache")

    def test_given_locker_without_key_scores_nothing(self, tmp_path):
        from repro import load_iscas85, lock_rll
        from repro.netlist.bench_io import save_bench

        locked = lock_rll(
            load_iscas85("c432", scale="quick"), key_size=4, seed=3
        )
        bench_path = tmp_path / "locked.bench"
        save_bench(locked.netlist, bench_path)
        spec = ExperimentSpec(
            benchmarks=(BenchmarkSpec(path=str(bench_path)),),
            lock=LockSpec(locker="given"),
            attacks=(AttackSpec("scope"),),
        )
        run = run_experiment(spec, workdir=tmp_path / "cache")
        assert run.cells[0].accuracy is None
        assert len(run.cells[0].predicted_key) == 4

    def test_synth_none_attacks_design_as_given(self, tmp_path):
        spec = small_spec(
            synth=SynthSpec(recipe="none"),
            attacks=(AttackSpec("scope"),),
        )
        run = run_experiment(spec, workdir=tmp_path)
        cell = run.cell("c432", "scope")
        assert cell.recipe == ""
        assert len(cell.predicted_key) == 6

    def test_parallel_run_reports_cache_stats(self, tmp_path):
        spec = small_spec(
            benchmarks=(BenchmarkSpec(name="c432"), BenchmarkSpec(name="c499"))
        )
        cold = run_experiment(spec, workdir=tmp_path, jobs=2)
        assert cold.cache["writes"] > 0
        warm = run_experiment(spec, workdir=tmp_path, jobs=2)
        assert warm.cache["hits"] >= warm.cached_stages > 0

    def test_sat_attack_cell_recovers_key(self, tmp_path):
        from repro import RESYN2, load_iscas85, lock_rll, synthesize_and_map
        from repro.locking import apply_key
        from repro.locking.key import Key
        from repro.sat import check_equivalence

        spec = small_spec(
            attacks=(AttackSpec("sat", params={"max_iterations": 64}),)
        )
        run = run_experiment(spec, workdir=tmp_path)
        cell = run.cell("c432", "sat")
        assert cell.details["attack"]["iterations"] <= 64
        # The recovered key must *functionally* unlock the attacked netlist
        # (bit-level Hamming distance may be nonzero: synthesis can leave
        # key bits as don't-cares).
        locked = lock_rll(
            load_iscas85("c432", scale="quick", seed=0), key_size=6, seed=7
        )
        netlist, _mapped = synthesize_and_map(locked.netlist, RESYN2)
        recovered = apply_key(
            netlist, Key(tuple(int(c) for c in cell.predicted_key))
        )
        reference = apply_key(netlist, locked.key)
        assert check_equivalence(recovered, reference).equivalent

    def test_resynthesis_sweep_from_spec(self, tmp_path):
        from repro.core.proxy import ProxyConfig
        from repro.flows import resynthesis_sweep_from_spec

        spec = ExperimentSpec(
            benchmarks=(BenchmarkSpec(name="c432"),),
            lock=LockSpec(locker="rll", key_size=6, seed=7),
        )
        points = resynthesis_sweep_from_spec(
            spec,
            ProxyConfig(num_samples=12, epochs=2, seed=0),
            objective="area",
            iterations=2,
            runner=Runner(workdir=tmp_path),
        )
        assert points
        assert all(p.metric_ratio > 0 for p in points)
        assert all(0.0 <= p.attack_accuracy <= 1.0 for p in points)

    def test_table_reporter(self, tmp_path):
        from repro.reporting import render_run_table

        run = run_experiment(small_spec(), workdir=tmp_path)
        table = render_run_table(run)
        assert "scope" in table and "redundancy" in table
        assert "c432" in table


# -- CLI integration -----------------------------------------------------

class TestPipelineCli:
    def _locked_design(self, tmp_path, capsys):
        design = tmp_path / "c432.bench"
        locked = tmp_path / "locked.bench"
        main(["gen", "c432", "--out", str(design)])
        main(["lock", str(design), "--key-size", "6", "--out", str(locked)])
        key_line = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("key (keep secret!): ")
        ][-1]
        return locked, key_line.split(": ")[1].strip()

    def test_attack_dispatches_by_name(self, tmp_path, capsys):
        locked, key = self._locked_design(tmp_path, capsys)
        assert main([
            "attack", str(locked), "--attack", "scope", "--key", key,
            "--workdir", str(tmp_path / "cache"),
        ]) == 0
        out = capsys.readouterr().out
        assert "predicted key: " in out
        assert "accuracy: " in out

    def test_attack_sat_points_to_sat_attack(self, tmp_path, capsys):
        locked, key = self._locked_design(tmp_path, capsys)
        assert main([
            "attack", str(locked), "--attack", "sat", "--key", key,
        ]) == 2
        assert "sat-attack" in capsys.readouterr().err

    def test_run_command_on_toml_spec(self, tmp_path, capsys):
        spec = small_spec(name="cli-run")
        spec_path = tmp_path / "spec.toml"
        spec.dump(spec_path)
        out_path = tmp_path / "result.json"
        assert main([
            "run", str(spec_path), "--workdir", str(tmp_path / "cache"),
            "--out", str(out_path),
        ]) == 0
        assert "cli-run" in capsys.readouterr().out
        loaded = RunResult.load(out_path)
        assert {c.attack for c in loaded.cells} == {"scope", "redundancy"}

    def test_grid_command_warm_cache(self, tmp_path, capsys):
        workdir = str(tmp_path / "cache")
        argv = [
            "grid", "--benchmarks", "c432", "--attacks", "scope,redundancy",
            "--key-size", "6", "--workdir", workdir,
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        # Warm rerun: every stage is a cache hit.
        assert "0 stages executed" in capsys.readouterr().out

    def test_grid_dump_spec_reproduces(self, tmp_path, capsys):
        workdir = str(tmp_path / "cache")
        spec_path = tmp_path / "grid.toml"
        assert main([
            "grid", "--benchmarks", "c432", "--attacks", "scope",
            "--key-size", "6", "--workdir", workdir,
            "--dump-spec", str(spec_path),
        ]) == 0
        capsys.readouterr()
        assert main([
            "run", str(spec_path), "--workdir", workdir,
        ]) == 0
        assert "0 stages executed" in capsys.readouterr().out


# -- SAT-resilient defenses through the pipeline --------------------------

class TestDefenseGrid:
    """The ISSUE-3 acceptance grid: {rll, antisat, rll+antisat} lockers
    crossed with the {sat, appsat} oracle-guided attacks, all green."""

    ATTACKS = (
        AttackSpec("sat", params={"max_iterations": 48}),
        AttackSpec("appsat", params={"max_iterations": 48,
                                     "query_period": 4}),
    )

    def _grid_spec(self, locker: str) -> ExperimentSpec:
        return ExperimentSpec(
            name=f"grid-{locker}",
            benchmarks=(BenchmarkSpec(name="c432"),),
            lock=LockSpec(locker=locker, key_size=4, seed=7),
            synth=SynthSpec(recipe="none"),
            attacks=self.ATTACKS,
        )

    def test_new_lockers_registered(self):
        for name in ("antisat", "sarlock", "rll+antisat", "rll+sarlock"):
            assert name in available("locker"), name
        for name in ("antisat", "sarlock"):
            assert name in available("defense"), name
        assert "appsat" in available("attack")

    def test_grid_runs_green_across_defenses(self, tmp_path):
        """Budget-exhausted SAT cells return partial results; no cell may
        kill the grid."""
        outcomes = {}
        for locker in ("rll", "antisat", "rll+antisat"):
            run = run_experiment(self._grid_spec(locker), workdir=tmp_path)
            assert len(run.cells) == 2, locker
            for cell in run.cells:
                details = cell.details["attack"]
                outcomes[(locker, cell.attack)] = details
                assert cell.accuracy is not None, (locker, cell.attack)
        # Plain RLL falls to the exact attack in a handful of DIPs...
        assert outcomes[("rll", "sat")]["exact"]
        assert not outcomes[("rll", "sat")]["budget_exhausted"]
        # ...while full-width Anti-SAT starves it into the budget...
        assert outcomes[("antisat", "sat")]["budget_exhausted"]
        assert outcomes[("rll+antisat", "sat")]["budget_exhausted"]
        # ...and AppSAT side-steps the defense with an approximate key.
        for locker in ("antisat", "rll+antisat"):
            details = outcomes[(locker, "appsat")]
            assert not details["budget_exhausted"], locker
            assert details["early_exit"], locker
            assert details["error_rate"] <= 0.05, locker

    def test_point_function_locker_key_sizes(self, tmp_path):
        run = run_experiment(
            ExperimentSpec(
                name="widths",
                benchmarks=(BenchmarkSpec(name="c432"),),
                lock=LockSpec(locker="rll+antisat", key_size=4, seed=1),
                synth=SynthSpec(recipe="none"),
            ),
            workdir=tmp_path,
        )
        # 4 RLL bits + 2 * 9 Anti-SAT bits on quick-scale c432.
        assert run.cells[0].key_size == 4 + 2 * 9

    def test_point_function_locker_rejects_prelocked(self, tmp_path, capsys):
        design = tmp_path / "c432.bench"
        locked = tmp_path / "locked.bench"
        main(["gen", "c432", "--out", str(design)])
        main(["lock", str(design), "--key-size", "4", "--out", str(locked)])
        capsys.readouterr()
        spec = ExperimentSpec(
            name="bad",
            benchmarks=(BenchmarkSpec(path=str(locked)),),
            lock=LockSpec(locker="antisat"),
        )
        with pytest.raises(PipelineError, match="unlocked"):
            run_experiment(spec, workdir=tmp_path / "cache")

    def test_structural_defense_spec_extends_key(self, tmp_path):
        """DefenseSpec(name='antisat') grafts the block onto the RLL lock:
        the attack sees the extended key and the spec round-trips."""
        spec = ExperimentSpec(
            name="defense-spec",
            benchmarks=(BenchmarkSpec(name="c432"),),
            lock=LockSpec(locker="rll", key_size=4, seed=3),
            defense=DefenseSpec(name="antisat", width=3, seed=4),
            synth=SynthSpec(recipe="none"),
            attacks=(AttackSpec("sat", params={"max_iterations": 64}),),
        )
        assert ExperimentSpec.from_toml(spec.to_toml()) == spec
        run = run_experiment(spec, workdir=tmp_path)
        cell = run.cells[0]
        assert cell.key_size == 4 + 2 * 3
        info = cell.details["defense"]
        assert info["defense"] == "antisat"
        assert info["added_key_bits"] == 6
        assert "lock" not in info  # artifacts stay out of the JSON surface
        assert cell.details["attack"]["iterations"] >= 2 ** 2
        json.loads(run.to_json())

    def test_structural_defense_width_validation(self):
        with pytest.raises(SpecError, match="width"):
            DefenseSpec(name="antisat", width=-1)

    def test_sarlock_defense_spec(self, tmp_path):
        spec = ExperimentSpec(
            name="sarlock-defense",
            benchmarks=(BenchmarkSpec(name="c432"),),
            lock=LockSpec(locker="rll", key_size=4, seed=5),
            defense=DefenseSpec(name="sarlock", seed=6),
            synth=SynthSpec(recipe="none"),
        )
        run = run_experiment(spec, workdir=tmp_path)
        assert run.cells[0].key_size == 4 + 9
        assert run.cells[0].details["defense"]["defense"] == "sarlock"


class TestDefenseCli:
    def test_defend_scheme_compound_locks_unlocked_design(
        self, tmp_path, capsys
    ):
        design = tmp_path / "c432.bench"
        defended = tmp_path / "defended.bench"
        main(["gen", "c432", "--out", str(design)])
        capsys.readouterr()
        assert main([
            "defend", str(design), "--scheme", "rll+antisat",
            "--key-size", "4", "--out", str(defended),
        ]) == 0
        out = capsys.readouterr().out
        assert "partition rll: 4 key bits" in out
        assert "partition antisat: 18 key bits" in out
        key = [
            line for line in out.splitlines()
            if line.startswith("key (keep secret!): ")
        ][0].split(": ")[1].strip()
        assert len(key) == 4 + 18
        # The defended netlist under its key is the original design.
        assert main([
            "equiv", str(design), str(defended), "--key", key,
        ]) == 0

    def test_defend_scheme_grafts_onto_locked_design(self, tmp_path, capsys):
        design = tmp_path / "c432.bench"
        locked = tmp_path / "locked.bench"
        defended = tmp_path / "defended.bench"
        main(["gen", "c432", "--out", str(design)])
        main(["lock", str(design), "--key-size", "4", "--out", str(locked)])
        key_line = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("key (keep secret!): ")
        ][-1]
        rll_key = key_line.split(": ")[1].strip()
        assert main([
            "defend", str(locked), "--scheme", "sarlock", "--key", rll_key,
            "--out", str(defended), "--workdir", str(tmp_path / "cache"),
        ]) == 0
        out = capsys.readouterr().out
        assert "defense sarlock: added 9 key bits" in out
        combined = [
            line for line in out.splitlines()
            if line.startswith("key (keep secret!): ")
        ][0].split(": ")[1].strip()
        assert len(combined) == 4 + 9
        assert main([
            "equiv", str(design), str(defended), "--key", combined,
        ]) == 0

    def test_defend_compound_rejects_locked_design(self, tmp_path, capsys):
        design = tmp_path / "c432.bench"
        locked = tmp_path / "locked.bench"
        main(["gen", "c432", "--out", str(design)])
        main(["lock", str(design), "--key-size", "4", "--out", str(locked)])
        capsys.readouterr()
        assert main([
            "defend", str(locked), "--scheme", "rll+antisat",
        ]) == 2
        assert "keyinput" in capsys.readouterr().err

    def test_sat_attack_appsat_on_defended_design(self, tmp_path, capsys):
        design = tmp_path / "c432.bench"
        defended = tmp_path / "defended.bench"
        main(["gen", "c432", "--out", str(design)])
        capsys.readouterr()
        main([
            "defend", str(design), "--scheme", "rll+antisat",
            "--key-size", "4", "--out", str(defended),
        ])
        key = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("key (keep secret!): ")
        ][0].split(": ")[1].strip()
        assert main([
            "sat-attack", str(defended), "--key", key, "--attack", "appsat",
            "--query-period", "4", "--workdir", str(tmp_path / "cache"),
        ]) == 0
        out = capsys.readouterr().out
        assert "recovered key: " in out
        assert "approximate key: measured error rate" in out
        assert "~err=" in out  # query-complexity table outcome column
        # The exact attack on the same design exhausts a tiny budget but
        # still exits 0 with a partial key (grid-safe contract).
        assert main([
            "sat-attack", str(defended), "--key", key, "--max-iterations",
            "8", "--workdir", str(tmp_path / "cache"),
        ]) == 0
        assert "DIP budget exhausted" in capsys.readouterr().out

    def test_grid_max_iterations_flag(self, tmp_path, capsys):
        design = tmp_path / "c432.bench"
        main(["gen", "c432", "--out", str(design)])
        capsys.readouterr()
        out_path = tmp_path / "grid.json"
        assert main([
            "grid", "--benchmarks", str(design), "--locker", "antisat",
            "--attacks", "sat", "--max-iterations", "8", "--recipe", "none",
            "--workdir", str(tmp_path / "cache"), "--out", str(out_path),
        ]) == 0
        loaded = RunResult.load(out_path)
        details = loaded.cells[0].details["attack"]
        assert details["budget_exhausted"] is True
        assert details["iterations"] == 8


# -- strategy sweeps -------------------------------------------------------

def sweep_defense(**overrides) -> DefenseSpec:
    """A minimal-budget search defense declaring a strategy sweep."""
    fields = dict(
        name="almost", iterations=1, samples=8, epochs=2, seed=3,
        strategy=["sa", "random"], chains=2,
    )
    fields.update(overrides)
    return DefenseSpec(**fields)


class TestStrategySweep:
    def test_sweep_spec_round_trips(self, tmp_path):
        spec = small_spec(defense=sweep_defense())
        assert ExperimentSpec.from_json(spec.to_json()) == spec
        path = tmp_path / "sweep.toml"
        spec.dump(path)
        loaded = ExperimentSpec.load(path)
        assert loaded == spec
        assert loaded.defense.strategies == ("sa", "random")
        assert loaded.defense.is_sweep

    def test_sweep_validation(self):
        with pytest.raises(SpecError, match="at least one"):
            DefenseSpec(strategy=[])
        with pytest.raises(SpecError, match="duplicate"):
            DefenseSpec(strategy=["sa", "sa"])
        with pytest.raises(SpecError, match="non-empty strings"):
            DefenseSpec(strategy=["sa", 3])
        with pytest.raises(SpecError, match="string or an array"):
            DefenseSpec(strategy=7)
        # Single-entry sweeps collapse to the canonical plain string.
        assert DefenseSpec(strategy=["pt"]) == DefenseSpec(strategy="pt")

    def test_variants_and_single_strategy(self):
        sweep = sweep_defense()
        variants = sweep.variants()
        assert [v.strategy for v in variants] == ["sa", "random"]
        assert all(not v.is_sweep for v in variants)
        assert variants[0].single_strategy == "sa"
        with pytest.raises(SpecError, match="expand it with variants"):
            sweep.single_strategy

    def test_runner_validates_every_swept_strategy(self, tmp_path):
        from repro.errors import SearchError

        spec = small_spec(
            attacks=(),
            defense=sweep_defense(strategy=["sa", "beem"]),
        )
        with pytest.raises(SearchError, match="unknown search strategy"):
            Runner(workdir=tmp_path).validate(spec)

    def test_sweep_on_structural_defense_rejected(self, tmp_path):
        # A sweep on a defense that ignores the strategy would only fan
        # out byte-identical cells — validation must refuse it up front.
        spec = small_spec(
            attacks=(),
            defense=sweep_defense(name="antisat"),
        )
        with pytest.raises(PipelineError, match="does not run a recipe"):
            Runner(workdir=tmp_path).validate(spec)

    def test_single_grid_run_produces_comparison_table(self, tmp_path):
        """The acceptance pin: one spec, one run, one populated table."""
        from repro.reporting import (
            records_from_run,
            render_search_comparison_table,
        )

        spec = small_spec(
            attacks=(),
            defense=sweep_defense(),
            report=ReportSpec(format="search"),
        )
        runner = Runner(workdir=tmp_path)
        run = runner.run(spec)
        assert [cell.strategy for cell in run.cells] == ["sa", "random"]
        assert run.cell("c432", strategy="random").strategy == "random"
        records = records_from_run(run)
        assert [r.strategy for r in records] == ["sa", "random"]
        assert all(r.label == "c432" for r in records)
        assert all(r.energy_evaluations > 0 for r in records)
        table = runner.report(run, spec)
        assert "sa" in table and "random" in table and "c432" in table
        assert render_search_comparison_table(records) == table
        # The run's JSON round-trips with the per-cell strategy tag.
        assert RunResult.from_json(run.to_json()).cells[0].strategy == "sa"

    def test_parallel_sweep_equals_serial(self, tmp_path):
        spec = small_spec(
            attacks=(AttackSpec("scope"),),
            defense=sweep_defense(),
        )
        serial = run_experiment(spec, workdir=tmp_path / "serial")
        parallel = run_experiment(
            spec, workdir=tmp_path / "parallel", jobs=2
        )
        assert [c.strategy for c in serial.cells] == [
            c.strategy for c in parallel.cells
        ]
        for left, right in zip(serial.cells, parallel.cells):
            assert left.recipe == right.recipe
            assert left.accuracy == right.accuracy
            assert left.details["defense"]["strategy"] == left.strategy

    def test_parallel_sweep_records_real_wall_clock(self, tmp_path):
        # With >1 attacks the parallel runner prefix-warms each variant's
        # defense stage, so every cell is a cache hit; the comparison
        # records must fall back to the warmup log's real timings rather
        # than reporting ~0s cache reads.
        from repro.reporting import records_from_run

        spec = small_spec(
            attacks=(
                AttackSpec("scope"),
                AttackSpec("redundancy", params={"num_patterns": 24}),
            ),
            defense=sweep_defense(),
        )
        run = run_experiment(spec, workdir=tmp_path, jobs=2)
        assert run.warmup  # the prefix-warming pass actually ran
        records = records_from_run(run)
        assert [r.strategy for r in records] == ["sa", "random"]
        # Proxy training alone takes well over 10ms; a cache read doesn't.
        assert all(r.elapsed_s > 0.01 for r in records), [
            r.elapsed_s for r in records
        ]

    def test_search_reporter_without_search_cells(self, tmp_path):
        run = run_experiment(small_spec(), workdir=tmp_path)
        from repro.pipeline import registry

        text = registry.get("reporter", "search")(run, ReportSpec())
        assert "no recipe-search cells" in text

    def test_grid_spec_flag_rejects_shaping_flags(self, tmp_path, capsys):
        spec_path = tmp_path / "sweep.toml"
        small_spec(defense=sweep_defense()).dump(spec_path)
        assert main([
            "grid", "--spec", str(spec_path), "--attacks", "scope",
            "--report", "json", "--no-cache",
        ]) == 2
        err = capsys.readouterr().err
        assert "--spec runs the spec file as-is" in err
        assert "--attacks" in err and "--report" in err


# -- graceful interruption & progress streaming ---------------------------

def _sleepy_attack(ctx, params):
    """A registered test attack that just sleeps (interruption target)."""
    import time as _time

    from repro.attacks.base import AttackResult

    _time.sleep(float(params.get("sleep_s", 5.0)))
    return AttackResult(
        predicted_bits=(0,) * len(ctx.lock.key_inputs),
        attack_name="sleepy",
    )


def _sigterm_probe_attack(ctx, params):
    """A registered test attack reporting its process's SIGTERM handler."""
    import os
    import signal

    from repro.attacks.base import AttackResult

    return AttackResult(
        predicted_bits=(0,) * len(ctx.lock.key_inputs),
        attack_name="sigterm_probe",
        details={
            "pid": os.getpid(),
            "sigterm_default": (
                signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
            ),
        },
    )


def _interrupt_second_cell(runner: Runner) -> None:
    """Make ``runner`` raise Ctrl-C as its second grid cell starts."""
    original = runner.run_cell
    calls = {"n": 0}

    def flaky(spec, bench, attack):
        calls["n"] += 1
        if calls["n"] == 2:
            raise KeyboardInterrupt
        return original(spec, bench, attack)

    runner.run_cell = flaky


class TestInterruption:
    def test_serial_interrupt_keeps_completed_cells(self, tmp_path):
        runner = Runner(workdir=tmp_path)
        _interrupt_second_cell(runner)
        run = runner.run(small_spec())
        assert run.interrupted
        assert len(run.cells) == 1
        assert run.cells[0].attack == "scope"
        # The flag survives the JSON round trip.
        assert RunResult.from_json(run.to_json()).interrupted

    def test_rerun_over_the_workdir_resumes_an_interrupted_grid(
        self, tmp_path
    ):
        runner = Runner(workdir=tmp_path)
        _interrupt_second_cell(runner)
        first = runner.run(small_spec())
        assert first.interrupted
        done = first.cells[0]

        rerun = Runner(workdir=tmp_path).run(small_spec())
        assert not rerun.interrupted
        assert [cell.attack for cell in rerun.cells] == [
            "scope", "redundancy"
        ]
        # The completed cell comes back from the cache, stage for stage.
        resumed = rerun.cell("c432", "scope")
        assert all(entry["cached"] for entry in resumed.stages)
        assert [entry["fingerprint"] for entry in resumed.stages] == [
            entry["fingerprint"] for entry in done.stages
        ]
        # The missing cell reuses the shared lock/synth prefix and runs
        # only its own attack.
        missing = rerun.cell("c432", "redundancy")
        cached = {e["stage"] for e in missing.stages if e["cached"]}
        executed = [e["stage"] for e in missing.stages if not e["cached"]]
        assert {"lock", "synth"} <= cached
        assert executed == ["attack"]
        assert rerun.executed_stages == len(executed)

    def test_parallel_interrupt_terminates_pool(self, tmp_path):
        import signal as _signal

        register("attack", "sleepy")(_sleepy_attack)
        try:
            spec = small_spec(
                attacks=(
                    AttackSpec(
                        "sleepy", params={"sleep_s": 20.0}, label="s1"
                    ),
                    AttackSpec(
                        "sleepy", params={"sleep_s": 20.1}, label="s2"
                    ),
                ),
                synth=SynthSpec(recipe="none"),
            )
            runner = Runner(workdir=tmp_path, jobs=2)

            def _interrupt(signum, frame):
                raise KeyboardInterrupt

            previous = _signal.signal(_signal.SIGALRM, _interrupt)
            _signal.setitimer(_signal.ITIMER_REAL, 2.0)
            started = __import__("time").perf_counter()
            try:
                run = runner.run(spec)
            finally:
                _signal.setitimer(_signal.ITIMER_REAL, 0.0)
                _signal.signal(_signal.SIGALRM, previous)
            elapsed = __import__("time").perf_counter() - started
            assert run.interrupted
            # The 20s attack cells died with the pool: the interrupt must
            # not wait for them.
            assert elapsed < 15.0
        finally:
            unregister("attack", "sleepy")

    def test_sigterm_lands_like_ctrl_c(self, tmp_path):
        import os
        import signal as _signal

        runner = Runner(workdir=tmp_path)

        def send_sigterm(spec, bench, attack):
            os.kill(os.getpid(), _signal.SIGTERM)
            raise AssertionError("SIGTERM handler should have fired")

        runner.run_cell = send_sigterm
        run = runner.run(small_spec())
        assert run.interrupted
        assert run.cells == []

    def test_cli_grid_interrupt_exits_130(self, tmp_path, capsys,
                                          monkeypatch):
        from repro.pipeline import runner as runner_mod

        def explode(self, spec, bench, attack):
            raise KeyboardInterrupt

        monkeypatch.setattr(runner_mod.Runner, "run_cell", explode)
        out_path = tmp_path / "run.json"
        code = main([
            "grid", "--benchmarks", "c432", "--attacks", "scope",
            "--key-size", "4", "--workdir", str(tmp_path / "cache"),
            "--out", str(out_path),
        ])
        assert code == 130
        assert "interrupted" in capsys.readouterr().err
        # The partial RunResult still lands on disk for later resumption.
        assert RunResult.load(out_path).interrupted

    def test_cli_main_maps_interrupt_to_130(self, capsys, monkeypatch):
        from repro import cli as cli_mod

        def interrupted_cmd(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_mod, "cmd_trace", interrupted_cmd)
        assert main(["trace", "whatever.jsonl"]) == 130
        assert "interrupted" in capsys.readouterr().err


class TestEvaluatorInterrupt:
    def test_evaluate_interrupt_terminates_pool(self):
        """Ctrl-C while a pool scores returns the finished results and
        stops the workers; closing afterwards stays idempotent."""
        import multiprocessing
        import signal as _signal

        from repro.utils.pool import WorkerPool

        pool = WorkerPool(2)

        def _interrupt(signum, frame):
            raise KeyboardInterrupt

        previous = _signal.signal(_signal.SIGALRM, _interrupt)
        _signal.setitimer(_signal.ITIMER_REAL, 1.0)
        try:
            assert pool.run(_sleep_energy, [30.0, 30.0]) == ([], True)
        finally:
            _signal.setitimer(_signal.ITIMER_REAL, 0.0)
            _signal.signal(_signal.SIGALRM, previous)
        assert pool._pool is None
        assert multiprocessing.active_children() == []
        pool.close()


def _sleep_energy(seconds: float) -> float:
    import time as _time

    _time.sleep(seconds)
    return seconds


# -- cache maintenance (repro cache) --------------------------------------

class TestCacheMaintenance:
    def _fill(self, root, n=4, size=1000):
        import os as _os
        import time as _time

        cache = ArtifactCache(root)
        for index in range(n):
            cache.put(f"{index:02d}{'ab' * 31}", b"x" * size)
            # Distinct mtimes so age-ordering is deterministic.
            path = cache.path_for(f"{index:02d}{'ab' * 31}")
            stamp = _time.time() - (n - index) * 3600
            _os.utime(path, (stamp, stamp))
        return cache

    def test_disk_stats(self, tmp_path):
        cache = self._fill(tmp_path / "cache")
        stats = cache.disk_stats()
        assert stats["entries"] == 4
        assert stats["bytes"] > 4 * 1000
        assert stats["schema"] == 5

    def test_prune_by_age(self, tmp_path):
        cache = self._fill(tmp_path / "cache")
        # Entries are 4h/3h/2h/1h old; evict anything past 2.5 hours.
        outcome = cache.prune(older_than_s=2.5 * 3600)
        assert outcome["removed"] == 2
        assert outcome["remaining"] == 2
        assert cache.disk_stats()["entries"] == 2

    def test_prune_by_size_evicts_oldest_first(self, tmp_path):
        cache = self._fill(tmp_path / "cache")
        total = cache.disk_stats()["bytes"]
        per_entry = total // 4
        outcome = cache.prune(max_bytes=2 * per_entry + 10)
        assert outcome["removed"] == 2
        # The newest two survive.
        assert cache.contains(f"{3:02d}{'ab' * 31}")
        assert cache.contains(f"{2:02d}{'ab' * 31}")
        assert not cache.contains(f"{0:02d}{'ab' * 31}")
        assert outcome["remaining_bytes"] <= 2 * per_entry + 10

    def test_parse_duration_and_size(self):
        from repro.pipeline.cache import parse_duration, parse_size

        assert parse_duration("90") == 90.0
        assert parse_duration("90s") == 90.0
        assert parse_duration("15m") == 900.0
        assert parse_duration("6h") == 21600.0
        assert parse_duration("2w") == 1209600.0
        assert parse_size("1024") == 1024
        assert parse_size("500M") == 500 * 1024**2
        assert parse_size("2G") == 2 * 1024**3
        assert parse_size("1kb") == 1024
        for bad in ("", "12x", "h", "5mm"):
            with pytest.raises(CacheError):
                parse_duration(bad)
            with pytest.raises(CacheError):
                parse_size(bad)

    def test_cli_cache_stats_and_prune(self, tmp_path, capsys):
        self._fill(tmp_path / "cache")
        assert main(["cache", "--workdir", str(tmp_path / "cache"),
                     "stats"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 4
        assert main(["cache", "--workdir", str(tmp_path / "cache"),
                     "prune", "--older-than", "150m"]) == 0
        outcome = json.loads(capsys.readouterr().out)
        assert outcome["removed"] == 2
        # prune with no criteria is a usage error, not a full wipe.
        assert main(["cache", "--workdir", str(tmp_path / "cache"),
                     "prune"]) == 2
