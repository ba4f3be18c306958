"""Tests for ``repro lint`` (:mod:`repro.analysis`).

Every rule gets a violating/clean fixture pair asserting the exact code
and line; on top of that: baseline round-trip (write -> absorb -> stale),
--select/--ignore, the three output formats through the real CLI, the
self-hosting guarantee (``src/`` is clean), and the docs fold (RPR4xx).
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro import analysis
from repro.analysis.baseline import Baseline, write_baseline
from repro.cli import main as cli_main
from repro.errors import AnalysisError

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint_source(
    tmp_path: Path, source: str, *, name: str = "fixture.py", **kwargs
) -> list[analysis.Finding]:
    (tmp_path / name).write_text(textwrap.dedent(source))
    return analysis.run_lint([tmp_path], **kwargs).findings


def codes_at(findings) -> list[tuple[str, int]]:
    return [(f.code, f.line) for f in findings]


# -- determinism rules (RPR1xx) -------------------------------------------


def test_rpr101_flags_set_iteration(tmp_path):
    findings = lint_source(tmp_path, """\
        def pick(items: set[int]):
            best = None
            for item in items:
                best = item
            return best
    """)
    assert codes_at(findings) == [("RPR101", 3)]
    assert "sorted" in findings[0].message


def test_rpr101_clean_with_sorted_and_setcomp(tmp_path):
    findings = lint_source(tmp_path, """\
        def pick(items: set[int]):
            doubled = {i * 2 for i in items}
            for item in sorted(items):
                pass
            return doubled
    """)
    assert findings == []


def test_rpr101_tracks_local_set_flow(tmp_path):
    findings = lint_source(tmp_path, """\
        def collect(a, b):
            seen = {a} | {b}
            ordered = list(seen)
            seen = sorted(seen)
            also_fine = list(seen)
            return ordered + also_fine
    """)
    assert codes_at(findings) == [("RPR101", 3)]


def test_rpr102_flags_module_level_rng(tmp_path):
    findings = lint_source(tmp_path, """\
        import random

        def jitter():
            return random.random()
    """)
    assert codes_at(findings) == [("RPR102", 4)]
    assert "make_rng" in findings[0].message


def test_rpr102_clean_with_seeded_generator(tmp_path):
    findings = lint_source(tmp_path, """\
        from repro.utils.rng import make_rng

        def jitter(seed):
            return make_rng(seed).random()
    """)
    assert findings == []


def test_rpr103_flags_wall_clock_in_cache_key(tmp_path):
    findings = lint_source(tmp_path, """\
        import time

        def cache_key(spec):
            return f"{spec}:{time.time()}"
    """)
    assert codes_at(findings) == [("RPR103", 4)]


def test_rpr103_allows_plain_timing(tmp_path):
    findings = lint_source(tmp_path, """\
        import time

        def elapsed(start):
            return time.time() - start
    """)
    assert findings == []


def test_rpr104_flags_builtin_hash_outside_dunder(tmp_path):
    findings = lint_source(tmp_path, """\
        def fingerprint(spec):
            return hash(str(spec))
    """)
    assert codes_at(findings) == [("RPR104", 2)]
    assert findings[0].severity is analysis.Severity.WARNING


def test_rpr104_allows_hash_inside_dunder_hash(tmp_path):
    findings = lint_source(tmp_path, """\
        class Key:
            def __hash__(self):
                return hash(("key", 1))
    """)
    assert findings == []


def test_rpr105_flags_seeded_generator_outside_rng_home(tmp_path):
    # RPR102 permits a *seeded* default_rng; RPR105 still rejects it
    # outside utils/rng.py so Generator construction stays in one module.
    findings = lint_source(tmp_path, """\
        import numpy as np

        def lanes(width):
            rng = np.random.default_rng(42)
            return rng.integers(0, 2, size=width)
    """)
    assert ("RPR105", 4) in codes_at(findings)
    assert "utils/rng.py" in next(
        f.message for f in findings if f.code == "RPR105"
    )


def test_rpr105_clean_inside_rng_home_and_via_make_rng(tmp_path):
    (tmp_path / "utils").mkdir()
    findings = lint_source(
        tmp_path,
        """\
        import numpy as np

        def make_rng(seed):
            return np.random.default_rng(seed)
        """,
        name="utils/rng.py",
    )
    findings += lint_source(tmp_path, """\
        from repro.utils.rng import make_rng

        def lanes(seed, width):
            return make_rng(seed).integers(0, 2, size=width)
    """)
    assert [f for f in findings if f.code == "RPR105"] == []


# -- concurrency rules (RPR2xx) -------------------------------------------


def test_rpr201_flags_lambda_to_pool(tmp_path):
    findings = lint_source(tmp_path, """\
        def fan_out(pool, xs):
            return pool.map(lambda v: v + 1, xs)
    """)
    assert codes_at(findings) == [("RPR201", 2)]
    assert "lambda" in findings[0].message


def test_rpr201_flags_nested_function_to_pool(tmp_path):
    findings = lint_source(tmp_path, """\
        def fan_out(pool, offset, xs):
            def shift(v):
                return v + offset
            return pool.map(shift, xs)
    """)
    assert codes_at(findings) == [("RPR201", 4)]
    assert "shift" in findings[0].message


def test_rpr201_flags_lambda_to_worker_pool_run(tmp_path):
    findings = lint_source(tmp_path, """\
        def fan_out(pool, xs):
            return pool.run(lambda v: v + 1, xs)
    """)
    assert codes_at(findings) == [("RPR201", 2)]
    assert "pool.run()" in findings[0].message


def test_rpr201_clean_with_module_level_worker(tmp_path):
    findings = lint_source(tmp_path, """\
        def double(v):
            return v * 2

        def fan_out(pool, xs):
            return pool.map(double, xs)
    """)
    assert findings == []


def test_rpr202_flags_manager_proxy_without_getstate(tmp_path):
    findings = lint_source(tmp_path, """\
        import multiprocessing

        class Hub:
            def start(self):
                self._manager = multiprocessing.Manager()
                self._events = self._manager.Queue()
    """)
    assert codes_at(findings) == [("RPR202", 5)]
    assert "__getstate__" in findings[0].message


def test_rpr202_clean_with_getstate(tmp_path):
    findings = lint_source(tmp_path, """\
        import multiprocessing

        class Hub:
            def start(self):
                self._manager = multiprocessing.Manager()

            def __getstate__(self):
                raise TypeError("Hub stays in the parent process")
    """)
    assert findings == []


_LOCKED_CLASS = """\
    import threading

    class Box:
        def __init__(self):
            self._lock = threading.Lock()
            self._items = []

        def add(self, item):
            with self._lock:
                self._items.append(item)

        def sneak(self, item):
            self._items.append(item)
"""


def test_rpr203_flags_off_lock_mutation(tmp_path):
    findings = lint_source(tmp_path, _LOCKED_CLASS)
    assert codes_at(findings) == [("RPR203", 13)]
    assert "sneak()" in findings[0].message


def test_rpr203_clean_when_all_mutations_locked(tmp_path):
    fixed = _LOCKED_CLASS.replace(
        "        def sneak(self, item):\n"
        "            self._items.append(item)",
        "        def sneak(self, item):\n"
        "            with self._lock:\n"
        "                self._items.append(item)",
    )
    assert fixed != _LOCKED_CLASS
    findings = lint_source(tmp_path, fixed)
    assert findings == []


def test_rpr203_lock_held_helper_is_clean(tmp_path):
    # SynthCache._touch pattern: the helper mutates off-lock but every one
    # of its call sites holds the lock, so the lock is inherited.
    findings = lint_source(tmp_path, """\
        import threading

        class Cache:
            def __init__(self):
                self._lock = threading.Lock()
                self._hits = 0

            def get(self, key):
                with self._lock:
                    self._touch()

            def _touch(self):
                self._hits += 1
    """)
    assert findings == []


# -- convention rules (RPR3xx) --------------------------------------------


def test_rpr301_flags_undocumented_namespace(tmp_path):
    findings = lint_source(tmp_path, """\
        from repro.obs import metrics

        def record():
            metrics.inc("bogus.counter")
    """)
    assert codes_at(findings) == [("RPR301", 4)]
    assert "bogus" in findings[0].message


def test_rpr301_clean_with_documented_namespace(tmp_path):
    findings = lint_source(tmp_path, """\
        from repro.obs import metrics

        def record():
            metrics.inc("search.rounds")
    """)
    assert findings == []


def test_rpr302_flags_negative_counter_and_gauge_inc(tmp_path):
    findings = lint_source(tmp_path, """\
        from repro.obs import metrics

        def record():
            metrics.inc("search.depth", -1)
            metrics.gauge("search.depth").inc()
    """)
    assert codes_at(findings) == [("RPR302", 4), ("RPR302", 5)]


def test_rpr302_clean_counter_up_gauge_set(tmp_path):
    findings = lint_source(tmp_path, """\
        from repro.obs import metrics

        def record(depth):
            metrics.inc("search.rounds")
            metrics.gauge("search.depth").set(depth)
    """)
    assert findings == []


def test_rpr303_flags_duplicate_registration(tmp_path):
    findings = lint_source(tmp_path, """\
        from repro.pipeline.registry import register

        register("attack", "scope")
        register("attack", "scope")
    """)
    assert codes_at(findings) == [("RPR303", 4)]
    assert "already registered" in findings[0].message


def test_rpr303_clean_distinct_names_and_dynamic_skipped(tmp_path):
    findings = lint_source(tmp_path, """\
        from repro.pipeline.registry import register

        register("attack", "scope")
        register("attack", "sweep")

        def plug(name):
            register("attack", name)
    """)
    assert findings == []


def test_rpr304_flags_choices_drift(tmp_path):
    findings = lint_source(tmp_path, """\
        import argparse
        from repro.pipeline.registry import register

        register("attack", "scope")
        register("attack", "sweep")

        def build():
            p = argparse.ArgumentParser()
            p.add_argument("--attack", choices=["scope"])
    """)
    assert codes_at(findings) == [("RPR304", 9)]
    assert "sweep" in findings[0].message


def test_rpr304_registry_derived_choices_are_clean(tmp_path):
    findings = lint_source(tmp_path, """\
        import argparse
        from repro.pipeline.registry import available, register

        register("attack", "scope")
        register("attack", "sweep")

        def build():
            p = argparse.ArgumentParser()
            p.add_argument("--attack", choices=["", *available("attack")])
            p.add_argument("--attack2", choices=["scope", "sweep"])
    """)
    assert findings == []


def test_rpr305_flags_unregistered_mark(tmp_path):
    (tmp_path / "pytest.ini").write_text(
        "[pytest]\nmarkers =\n    slow: long-running\n"
    )
    findings = lint_source(tmp_path, """\
        import pytest

        @pytest.mark.slwo
        def test_example():
            pass
    """)
    assert codes_at(findings) == [("RPR305", 3)]
    assert "slwo" in findings[0].message


def test_rpr305_registered_and_builtin_marks_are_clean(tmp_path):
    (tmp_path / "pytest.ini").write_text(
        "[pytest]\nmarkers =\n    slow: long-running\n"
    )
    findings = lint_source(tmp_path, """\
        import pytest

        @pytest.mark.slow
        @pytest.mark.parametrize("n", [1, 2])
        def test_example(n):
            pass
    """)
    assert findings == []


# -- engine: parse errors, pragmas, select/ignore -------------------------


def test_parse_error_is_a_finding(tmp_path):
    findings = lint_source(tmp_path, "def broken(:\n")
    assert codes_at(findings) == [("RPR001", 1)]


def test_pragma_suppresses_named_code(tmp_path):
    findings = lint_source(tmp_path, """\
        def pick(items: set[int]):
            for item in items:  # lint: ignore[RPR101]
                pass
    """)
    assert findings == []


def test_pragma_does_not_suppress_other_codes(tmp_path):
    findings = lint_source(tmp_path, """\
        def pick(items: set[int]):
            for item in items:  # lint: ignore[RPR102]
                pass
    """)
    assert codes_at(findings) == [("RPR101", 2)]


_MIXED = """\
    import random

    def sweep(items: set[int]):
        for item in items:
            random.shuffle([item])
"""


def test_select_limits_to_family(tmp_path):
    findings = lint_source(tmp_path, _MIXED, select=["RPR101"])
    assert codes_at(findings) == [("RPR101", 4)]


def test_ignore_drops_family(tmp_path):
    findings = lint_source(tmp_path, _MIXED, ignore=["RPR1xx"])
    assert findings == []


def test_rule_selected_prefix_semantics():
    assert analysis.rule_selected("RPR101", ("RPR1",), ())
    assert analysis.rule_selected("RPR101", ("RPR1xx",), ())
    assert not analysis.rule_selected("RPR201", ("RPR1",), ())
    assert not analysis.rule_selected("RPR101", (), ("RPR101",))


# -- baseline round-trip ---------------------------------------------------


def test_baseline_round_trip_absorbs_then_goes_stale(tmp_path):
    fixture = tmp_path / "pkg"
    fixture.mkdir()
    (fixture / "mod.py").write_text(textwrap.dedent("""\
        def pick(items: set[int]):
            for item in items:
                pass
    """))
    first = analysis.run_lint([fixture])
    assert len(first.findings) == 1

    baseline_path = tmp_path / "baseline.txt"
    write_baseline(first.findings, baseline_path)

    absorbed = analysis.run_lint([fixture], baseline=baseline_path)
    assert absorbed.findings == []
    assert absorbed.baselined == 1
    assert absorbed.exit_code == 0

    # A new violation is fresh even with the baseline in place.
    (fixture / "mod.py").write_text(textwrap.dedent("""\
        def pick(items: set[int]):
            for item in items:
                pass
            for again in items:
                pass
    """))
    fresh = analysis.run_lint([fixture], baseline=baseline_path)
    assert len(fresh.findings) == 1
    assert fresh.findings[0].line == 4
    assert fresh.baselined == 1

    # Debt paid -> the entry is reported stale, the run stays green.
    (fixture / "mod.py").write_text(textwrap.dedent("""\
        def pick(items: set[int]):
            for item in sorted(items):
                pass
    """))
    paid = analysis.run_lint([fixture], baseline=baseline_path)
    assert paid.findings == []
    assert paid.exit_code == 0
    assert len(paid.stale_baseline) == 1
    assert "RPR101" in paid.stale_baseline[0]


def test_baseline_keys_survive_line_drift(tmp_path):
    fixture = tmp_path / "pkg"
    fixture.mkdir()
    (fixture / "mod.py").write_text(textwrap.dedent("""\
        def pick(items: set[int]):
            for item in items:
                pass
    """))
    baseline_path = tmp_path / "baseline.txt"
    write_baseline(analysis.run_lint([fixture]).findings, baseline_path)

    # Push the offending line down three lines; the key is source-based.
    (fixture / "mod.py").write_text(textwrap.dedent("""\
        GAP = 1


        def pick(items: set[int]):
            for item in items:
                pass
    """))
    drifted = analysis.run_lint([fixture], baseline=baseline_path)
    assert drifted.findings == []
    assert drifted.baselined == 1


def test_malformed_baseline_raises(tmp_path):
    bad = tmp_path / "baseline.txt"
    bad.write_text("not a baseline entry\n")
    with pytest.raises(AnalysisError):
        Baseline.load(bad)


# -- CLI: formats, exit codes ---------------------------------------------


def _write_bad_fixture(tmp_path: Path) -> Path:
    fixture = tmp_path / "pkg"
    fixture.mkdir()
    (fixture / "mod.py").write_text(textwrap.dedent("""\
        def pick(items: set[int]):
            for item in items:
                pass
    """))
    return fixture


def test_cli_text_format_and_exit_code(tmp_path, capsys):
    fixture = _write_bad_fixture(tmp_path)
    code = cli_main(["lint", str(fixture), "--no-baseline"])
    out = capsys.readouterr().out
    assert code == 1
    assert "RPR101" in out
    assert "mod.py:2:" in out


def test_cli_json_format(tmp_path, capsys):
    fixture = _write_bad_fixture(tmp_path)
    code = cli_main([
        "lint", str(fixture), "--format", "json", "--no-baseline",
    ])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["exit_code"] == 1
    assert payload["files_scanned"] == 1
    [finding] = payload["findings"]
    assert finding["code"] == "RPR101"
    assert finding["line"] == 2
    assert finding["source"] == "for item in items:"


def test_cli_github_format(tmp_path, capsys):
    fixture = _write_bad_fixture(tmp_path)
    code = cli_main([
        "lint", str(fixture), "--format", "github", "--no-baseline",
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "::error file=" in out
    assert "title=RPR101::" in out
    assert "::notice title=repro lint::" in out


def test_cli_clean_run_exits_zero_and_writes_report(tmp_path, capsys):
    fixture = tmp_path / "pkg"
    fixture.mkdir()
    (fixture / "mod.py").write_text("VALUE = 1\n")
    report_path = tmp_path / "report.json"
    code = cli_main([
        "lint", str(fixture), "--no-baseline",
        "--report", str(report_path),
    ])
    assert code == 0
    assert json.loads(report_path.read_text())["exit_code"] == 0


def test_cli_write_baseline_then_green(tmp_path, capsys):
    fixture = _write_bad_fixture(tmp_path)
    baseline_path = tmp_path / "baseline.txt"
    assert cli_main([
        "lint", str(fixture), "--baseline", str(baseline_path),
        "--write-baseline",
    ]) == 0
    capsys.readouterr()
    assert cli_main([
        "lint", str(fixture), "--baseline", str(baseline_path),
    ]) == 0
    assert "baselined" in capsys.readouterr().out


def test_cli_missing_explicit_baseline_is_an_error(tmp_path, capsys):
    fixture = _write_bad_fixture(tmp_path)
    code = cli_main([
        "lint", str(fixture), "--baseline", str(tmp_path / "nope.txt"),
    ])
    assert code == 2


def test_cli_list_rules_names_every_family(capsys):
    assert cli_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("RPR001", "RPR101", "RPR102", "RPR103", "RPR104",
                 "RPR105",
                 "RPR201", "RPR202", "RPR203", "RPR301", "RPR302",
                 "RPR303", "RPR304", "RPR305"):
        assert code in out


# -- docs fold (RPR4xx) ----------------------------------------------------


def test_docs_broken_link_is_a_finding(tmp_path):
    from repro.analysis.docs import doc_files, link_problems

    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "guide.md").write_text(
        "# Guide\n\nSee [missing](nowhere.md) for more.\n"
    )
    (tmp_path / "README.md").write_text("# Repo\n")
    [finding] = link_problems(doc_files(tmp_path), tmp_path)
    assert finding.code == "RPR401"
    assert finding.line == 3
    assert "nowhere.md" in finding.message


def test_docs_missing_anchor_is_a_finding(tmp_path):
    from repro.analysis.docs import doc_files, link_problems

    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "a.md").write_text("# A\n\n[jump](b.md#no-such-heading)\n")
    (docs / "b.md").write_text("# B\n\n## Real heading\n")
    [finding] = link_problems(doc_files(tmp_path), tmp_path)
    assert finding.code == "RPR401"
    assert "no-such-heading" in finding.message


def test_docs_subcommand_mentions_track_first_location(tmp_path):
    from repro.analysis.docs import subcommand_mentions

    readme = tmp_path / "README.md"
    readme.write_text(
        "# Repo\n\nRun `repro lint src/` before pushing.\n\n"
        "```\nrepro gen c1908 --out c.bench\n```\n"
    )
    mentions = subcommand_mentions([readme])
    assert mentions["lint"] == (readme, 3)
    assert mentions["gen"] == (readme, 6)


def test_docs_vacuous_check_is_a_finding(tmp_path):
    from repro.analysis.docs import doc_findings

    (tmp_path / "README.md").write_text("# Repo with no command docs\n")
    findings = doc_findings(tmp_path)
    assert [f.code for f in findings] == ["RPR403"]


# -- self-hosting ----------------------------------------------------------


def test_lint_is_clean_on_src():
    """The self-hosting contract: ``repro lint src/`` stays green."""
    report = analysis.run_lint([REPO_ROOT / "src"])
    assert report.findings == [], "\n".join(
        f.text() for f in report.findings
    )
    assert len(report.rules) >= 10


def test_lint_marker_rule_is_clean_on_tests():
    report = analysis.run_lint([REPO_ROOT / "tests"], select=["RPR305"])
    assert report.findings == [], "\n".join(
        f.text() for f in report.findings
    )
