"""Golden synthesis corpus: exact AIGs and mapped areas, pinned bit for bit.

Every synthesis optimisation must leave these results unchanged.  Each case
locks a quick-scale ISCAS-85 circuit with RLL (8 key bits, seed 0), applies a
recipe, and records the ``Aig.fingerprint()`` of the result together with
the total cell area of its technology mapping.  A digest of every
structure-cache entry the corpus creates from an empty cache pins the
candidate programs ``rewrite`` and ``refactor`` choose from, so a change to
ISOP, factoring or compilation shows even where it leaves the AIGs alone.

The data lives in ``tests/golden/synth_golden.json``.  Regenerate it only
when a change is *meant* to alter synthesis results::

    PYTHONPATH=src python -m tests.test_synth_golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.aig import aig_from_netlist
from repro.circuits import load_iscas85
from repro.locking import lock_rll
from repro.mapping.mapper import map_aig
from repro.obs.metrics import REGISTRY
from repro.synth import RESYN2, SynthCache, apply_recipe, random_recipe
from repro.synth import library
from repro.synth.engine import apply_transform

GOLDEN_PATH = Path(__file__).parent / "golden" / "synth_golden.json"

CIRCUITS = ("c432", "c499", "c880", "c1355", "c1908", "c2670", "c3540")
KEY_SIZE = 8
LOCK_SEED = 0
RECIPES = {
    "resyn2": RESYN2,
    "random10_seed1": random_recipe(10, seed=1),
    "random10_seed2": random_recipe(10, seed=2),
}


def _locked_aig(circuit: str):
    locked = lock_rll(
        load_iscas85(circuit, scale="quick"), key_size=KEY_SIZE, seed=LOCK_SEED
    )
    return aig_from_netlist(locked.netlist)


def synthesize_case(circuit: str, recipe_name: str) -> dict:
    """Fingerprint and mapped area of one corpus case."""
    optimized = apply_recipe(_locked_aig(circuit), RECIPES[recipe_name])
    return {
        "fingerprint": optimized.fingerprint(),
        "ands": optimized.num_ands(),
        "area": round(map_aig(optimized).total_area(), 6),
    }


def structure_cache_digest() -> dict:
    """Entry count and SHA-256 of the structure cache the corpus fills.

    Starts from an empty cache, synthesizes every case, and hashes each
    entry in sorted key order: ``(kind, bits, nvars)`` and every
    candidate's program, output phase and literal cost.
    """
    library.clear_structure_cache()
    misses_before = REGISTRY.counters().get("synth.struct_cache.misses", 0)
    for circuit in CIRCUITS:
        for recipe in RECIPES.values():
            apply_recipe(_locked_aig(circuit), recipe)
    misses = REGISTRY.counters()["synth.struct_cache.misses"] - misses_before
    assert misses <= library.STRUCT_CACHE_SIZE, "the corpus evicted entries"
    digest = hashlib.sha256()
    for key in sorted(library._CACHE):
        entry = [
            (c.program.ops, c.program.out, c.output_negated, c.literal_cost)
            for c in library._CACHE[key]
        ]
        digest.update(repr((key, entry)).encode())
    return {"entries": len(library._CACHE), "sha256": digest.hexdigest()}


def regenerate(path: Path = GOLDEN_PATH) -> dict:
    """Recompute every case and write the corpus file."""
    corpus = {
        "inputs": {
            "circuits": list(CIRCUITS),
            "scale": "quick",
            "locking": {"scheme": "rll", "key_size": KEY_SIZE, "seed": LOCK_SEED},
            "recipes": {name: str(recipe) for name, recipe in RECIPES.items()},
        },
        "cases": {
            f"{circuit}/{name}": synthesize_case(circuit, name)
            for circuit in CIRCUITS
            for name in RECIPES
        },
        "structure_cache": structure_cache_digest(),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(corpus, indent=2, sort_keys=True) + "\n")
    return corpus


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_corpus_inputs_match_the_generator():
    inputs = _golden()["inputs"]
    assert inputs["circuits"] == list(CIRCUITS)
    assert inputs["locking"] == {
        "scheme": "rll", "key_size": KEY_SIZE, "seed": LOCK_SEED,
    }
    assert inputs["recipes"] == {
        name: str(recipe) for name, recipe in RECIPES.items()
    }


@pytest.mark.parametrize("circuit", CIRCUITS)
def test_synthesis_matches_golden(circuit):
    cases = _golden()["cases"]
    for name in RECIPES:
        assert synthesize_case(circuit, name) == cases[f"{circuit}/{name}"], (
            f"{circuit} under {name} drifted from the golden corpus"
        )


def test_structure_cache_matches_golden():
    assert structure_cache_digest() == _golden()["structure_cache"], (
        "the structure-cache candidates drifted from the golden corpus"
    )


@pytest.mark.parametrize("circuit", CIRCUITS)
def test_every_step_and_cached_resume_passes_check(circuit):
    """``Aig.check()`` holds after every corpus step, and every state the
    synthesis cache serves is the replayed state and passes it too."""
    start = _locked_aig(circuit).compact()
    cache = SynthCache()
    for recipe in RECIPES.values():
        aig = start.clone()
        replayed = []
        for step in recipe:
            aig = apply_transform(aig, step)
            aig.check()
            replayed.append(aig.fingerprint())
        apply_recipe(start, recipe, cache=cache)
        for length in range(1, len(recipe) + 1):
            served, resumed = cache.lookup(
                start.fingerprint(), recipe.steps[:length]
            )
            assert served == length
            resumed.check()
            assert resumed.fingerprint() == replayed[length - 1]


if __name__ == "__main__":
    written = regenerate()
    print(f"wrote {len(written['cases'])} cases to {GOLDEN_PATH}")
