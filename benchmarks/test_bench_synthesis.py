"""Synthesis-engine micro-benchmarks (substrate characterization).

Not a paper table, but the numbers every other bench stands on: per-pass
runtime and the reduction achieved by ``resyn2`` per benchmark circuit.
``test_bench_synth_recipes`` writes ``BENCH_synth.json``: per-pass time of
the recipes ALMOST scores, on a locked c1355, with the structure cache's
hit rate, the cuts and candidates ``rewrite``/``refactor`` examined (and
how many candidates the bounded dry-run pruned), the windows and divisor
pairs ``resub`` examined, and the inputs that produced them.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import pytest

from repro.aig import aig_from_netlist
from repro.circuits import load_iscas85
from repro.locking import lock_rll
from repro.obs.metrics import REGISTRY
from repro.reporting import render_table
from repro.synth import RESYN2, apply_recipe, apply_transform, random_recipe
from repro.synth.library import clear_structure_cache
from repro.synth.balance import balance
from repro.synth.refactor import refactor_pass
from repro.synth.resub import resub_pass
from repro.synth.rewrite import rewrite_pass


@pytest.fixture(scope="module")
def c1908_aig():
    return aig_from_netlist(load_iscas85("c1908", scale="quick"))


def test_bench_rewrite_pass(benchmark, c1908_aig):
    result = benchmark.pedantic(
        lambda: rewrite_pass(c1908_aig.compact()), rounds=3, iterations=1
    )


def test_bench_refactor_pass(benchmark, c1908_aig):
    benchmark.pedantic(
        lambda: refactor_pass(c1908_aig.compact()), rounds=3, iterations=1
    )


def test_bench_resub_pass(benchmark, c1908_aig):
    benchmark.pedantic(
        lambda: resub_pass(c1908_aig.compact()), rounds=3, iterations=1
    )


def test_bench_balance(benchmark, c1908_aig):
    benchmark.pedantic(lambda: balance(c1908_aig), rounds=3, iterations=1)


def test_bench_resyn2_reduction(benchmark, scale):
    rows = []

    def run():
        aig = aig_from_netlist(load_iscas85("c1355", scale="quick"))
        return apply_recipe(aig, RESYN2)

    benchmark.pedantic(run, rounds=1, iterations=1)
    for name in scale.benchmarks:
        aig = aig_from_netlist(load_iscas85(name, scale=scale.circuit_scale))
        optimized = apply_recipe(aig, RESYN2)
        rows.append(
            [
                name,
                aig.num_ands(),
                optimized.num_ands(),
                100.0 * (1 - optimized.num_ands() / max(aig.num_ands(), 1)),
                aig.depth(),
                optimized.depth(),
            ]
        )
        assert optimized.num_ands() <= aig.num_ands()
    print()
    print(
        render_table(
            ["bench", "ands before", "ands after", "reduction %",
             "depth before", "depth after"],
            rows,
            title="resyn2 reduction",
        )
    )


RECIPE_CIRCUIT = "c1355"
RECIPE_KEY_SIZE = 8
RECIPE_LOCK_SEED = 0
RECIPE_SEEDS = tuple(range(8))


def _time_recipes(start, recipes) -> dict:
    """Run every recipe from ``start``; per-pass time and cache traffic."""
    passes: dict[str, dict] = {}
    before = REGISTRY.counters()
    started = time.perf_counter()
    for recipe in recipes:
        current = start.compact()
        for step in recipe:
            step_started = time.perf_counter()
            current = apply_transform(current, step)
            entry = passes.setdefault(step, {"calls": 0, "total_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += time.perf_counter() - step_started
        assert current.compact().num_ands() <= start.num_ands()
    total_s = time.perf_counter() - started
    after = REGISTRY.counters()

    def delta(name: str) -> int:
        return after.get(name, 0) - before.get(name, 0)

    hits = delta("synth.struct_cache.hits")
    misses = delta("synth.struct_cache.misses")
    return {
        "total_s": round(total_s, 4),
        "passes": {
            step: {"calls": entry["calls"], "total_s": round(entry["total_s"], 4)}
            for step, entry in sorted(passes.items())
        },
        "struct_cache": {
            "hits": hits,
            "misses": misses,
            "hit_rate": round(hits / max(hits + misses, 1), 4),
        },
        "work": {
            name: delta(f"synth.{name}")
            for name in (
                "cuts", "candidates_evaluated", "candidates_pruned",
                "resub_windows", "resub_pair_ands",
            )
        },
    }


def test_bench_synth_recipes():
    """Per-pass time of resyn2 plus 8 fixed random recipes.

    The recipes run twice: from a cold structure cache, then again warm
    (every cut function already cached), as a long ALMOST search runs.
    """
    locked = lock_rll(
        load_iscas85(RECIPE_CIRCUIT, scale="quick"),
        key_size=RECIPE_KEY_SIZE, seed=RECIPE_LOCK_SEED,
    )
    start = aig_from_netlist(locked.netlist)
    recipes = [RESYN2] + [random_recipe(10, seed=seed) for seed in RECIPE_SEEDS]
    clear_structure_cache()
    cold = _time_recipes(start, recipes)
    warm = _time_recipes(start, recipes)
    payload = {
        "bench": "synth",
        "workload": {
            "circuit": RECIPE_CIRCUIT,
            "circuit_scale": "quick",
            "locking": {
                "scheme": "rll",
                "key_size": RECIPE_KEY_SIZE,
                "seed": RECIPE_LOCK_SEED,
            },
            "recipes": [str(recipe) for recipe in recipes],
            "random_recipe_seeds": list(RECIPE_SEEDS),
        },
        "environment": {
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
        },
        "cold": cold,
        "warm": warm,
    }
    Path("BENCH_synth.json").write_text(json.dumps(payload, indent=2) + "\n")
    assert cold["struct_cache"]["misses"] > 0
    assert warm["struct_cache"]["misses"] == 0
    print()
    print(
        render_table(
            ["pass", "calls", "cold s", "warm s"],
            [
                [step, entry["calls"], entry["total_s"],
                 warm["passes"][step]["total_s"]]
                for step, entry in cold["passes"].items()
            ],
            title=f"synthesis passes on locked {RECIPE_CIRCUIT} (struct-cache "
            f"hit rate cold {cold['struct_cache']['hit_rate']:.3f})",
        )
    )
