"""Golden search traces: every recipe an ALMOST search scores, pinned.

Synthesis caching must never change what a search sees.  Each case trains a
tiny ``M_resyn2`` proxy on RLL-locked quick c432, attaches an empty
:class:`~repro.synth.cache.SynthCache`, runs one serial search, and records
every evaluated recipe with its Eq. 1 energy in scoring order, plus the
returned recipe and its predicted accuracy.

The data lives in ``tests/golden/search_golden.json``.  Regenerate it only
when a change is *meant* to alter search results::

    PYTHONPATH=src python -m tests.test_search_golden
"""

from __future__ import annotations

import collections
import dataclasses
import json
from functools import lru_cache
from pathlib import Path

import pytest

from repro.circuits import load_iscas85
from repro.core.almost import TARGET_ACCURACY, AlmostConfig, AlmostDefense
from repro.core.proxy import ProxyConfig, build_resyn2_proxy
from repro.locking import lock_rll
from repro.synth.cache import SynthCache

GOLDEN_PATH = Path(__file__).parent / "golden" / "search_golden.json"

CIRCUIT = "c432"
KEY_SIZE = 6
LOCK_SEED = 11
PROXY = dict(num_samples=12, epochs=2, relock_key_bits=6,
             num_random_recipes=2, seed=5)
SEARCHES = {
    "sa": dict(strategy="sa", sa_iterations=24, seed=3, stop_margin=-1.0),
    "pt": dict(strategy="pt", sa_iterations=4, chains=3, seed=3,
               stop_margin=-1.0, jobs=1),
}


@lru_cache(maxsize=1)
def _proxy():
    locked = lock_rll(
        load_iscas85(CIRCUIT, scale="quick"), key_size=KEY_SIZE, seed=LOCK_SEED
    )
    return build_resyn2_proxy(locked, ProxyConfig(**PROXY))


def search_case(name: str) -> dict:
    """Scoring trace and outcome of one pinned search."""
    proxy = dataclasses.replace(
        _proxy(), synth_cache=SynthCache(), _cache=collections.OrderedDict()
    )
    config = AlmostConfig(**SEARCHES[name])
    score = proxy.predicted_accuracy_batch
    evaluations = []

    def recorded(recipes):
        accuracies = score(recipes)
        evaluations.extend(
            [recipe.short(), abs(accuracy - TARGET_ACCURACY)]
            for recipe, accuracy in zip(recipes, accuracies)
        )
        return accuracies

    proxy.predicted_accuracy_batch = recorded
    result = AlmostDefense(proxy, config).generate_recipe()
    return {
        "evaluations": evaluations,
        "recipe": result.recipe.short(),
        "predicted_accuracy": result.predicted_accuracy,
    }


def regenerate(path: Path = GOLDEN_PATH) -> dict:
    """Rerun every search and write the trace file."""
    traces = {
        "inputs": {
            "circuit": CIRCUIT,
            "scale": "quick",
            "locking": {"scheme": "rll", "key_size": KEY_SIZE,
                        "seed": LOCK_SEED},
            "proxy": dict(PROXY),
            "searches": {name: dict(config)
                         for name, config in SEARCHES.items()},
        },
        "searches": {name: search_case(name) for name in SEARCHES},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(traces, indent=2, sort_keys=True) + "\n")
    return traces


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_trace_inputs_match_the_generator():
    inputs = _golden()["inputs"]
    assert inputs["circuit"] == CIRCUIT
    assert inputs["locking"] == {
        "scheme": "rll", "key_size": KEY_SIZE, "seed": LOCK_SEED,
    }
    assert inputs["proxy"] == PROXY
    assert inputs["searches"] == SEARCHES


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_search_matches_golden(name):
    assert search_case(name) == _golden()["searches"][name], (
        f"the {name} search drifted from its golden trace"
    )


if __name__ == "__main__":
    written = regenerate()
    print(f"wrote {len(written['searches'])} search traces to {GOLDEN_PATH}")
