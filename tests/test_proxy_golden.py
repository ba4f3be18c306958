"""Golden proxy models: what ``M_resyn2``, ``M_random`` and ``M*`` learn, pinned.

The three proxies differ only in their training data (paper Sec. IV-A):
relock -> resynthesize -> locality rounds under ``resyn2``, under random
recipes, or under recipes an inner SA search found adversarial
(Algorithm 1).  A change to how those rounds are generated, or to the
training loop, may restructure the code but must not change what the
models learn unless it says so.  Each case trains one proxy on RLL-locked
quick c432 and records:

* the size of the pool the training loop saw (initial data plus every
  graph appended during training) and a SHA-256 over its graphs;
* a SHA-256 over the trained weights — the signal that carries, since
  at this size the predicted accuracies take only a few values;
* the predicted accuracy on ``resyn2`` and three random recipes.

The data lives in ``tests/golden/proxy_golden.json``.  Regenerate it only
when a change is *meant* to alter proxy training::

    PYTHONPATH=src python -m tests.test_proxy_golden
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import repro.attacks.omla as omla
from repro.circuits import load_iscas85
from repro.core.adversarial import AdversarialConfig, train_adversarial_attack
from repro.core.proxy import ProxyConfig, build_random_proxy, build_resyn2_proxy
from repro.locking import lock_rll
from repro.synth.recipe import RESYN2, random_recipe

GOLDEN_PATH = Path(__file__).parent / "golden" / "proxy_golden.json"

CIRCUIT = "c432"
KEY_SIZE = 6
LOCK_SEED = 11
PROXY = dict(num_samples=16, epochs=4, relock_key_bits=8,
             num_random_recipes=2, seed=3)
ADVERSARIAL = dict(period=2, augment_samples=8, sa_iterations=2, max_rounds=1)
MODELS = ("M_resyn2", "M_random", "M*")
RECIPES = [RESYN2] + [random_recipe(10, seed=i) for i in range(3)]


@functools.lru_cache(maxsize=1)
def _locked():
    return lock_rll(
        load_iscas85(CIRCUIT, scale="quick"), key_size=KEY_SIZE, seed=LOCK_SEED
    )


def _build(name: str):
    config = ProxyConfig(**PROXY)
    if name == "M_resyn2":
        return build_resyn2_proxy(_locked(), config)
    if name == "M_random":
        return build_random_proxy(_locked(), config)
    return train_adversarial_attack(
        _locked(), config, AdversarialConfig(**ADVERSARIAL)
    )


def _train_recording_pool(name: str):
    """Build one proxy; return it with every graph its training loop saw."""
    pool = []
    train = omla.train_classifier

    def recording(model, graphs, config=None, extra_graphs_provider=None):
        pool.extend(graphs)
        provider = None
        if extra_graphs_provider is not None:

            def provider(epoch):
                extra = list(extra_graphs_provider(epoch))
                pool.extend(extra)
                return extra

        return train(model, graphs, config, extra_graphs_provider=provider)

    with mock.patch.object(omla, "train_classifier", recording):
        proxy = _build(name)
    return proxy, pool


def _digest(arrays) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(repr(array.shape).encode())
        sha.update(array.tobytes())
    return sha.hexdigest()


def proxy_case(name: str) -> dict:
    """Training pool, weights and predictions of one pinned proxy."""
    proxy, pool = _train_recording_pool(name)
    return {
        "name": proxy.name,
        "pool_size": len(pool),
        "pool_sha256": _digest(
            array
            for graph in pool
            for array in (graph.features, graph.edges, np.array(graph.label))
        ),
        "weights_sha256": _digest(proxy.attack.model.state_dict()),
        "predicted_accuracy": proxy.predicted_accuracy_batch(RECIPES),
    }


def _inputs() -> dict:
    return {
        "circuit": CIRCUIT,
        "scale": "quick",
        "locking": {"scheme": "rll", "key_size": KEY_SIZE, "seed": LOCK_SEED},
        "proxy": dict(PROXY),
        "adversarial": dict(ADVERSARIAL),
        "recipes": [recipe.short() for recipe in RECIPES],
    }


def regenerate(path: Path = GOLDEN_PATH) -> dict:
    """Retrain every proxy and write the golden file."""
    golden = {
        "inputs": _inputs(),
        "models": {name: proxy_case(name) for name in MODELS},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return golden


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_proxy_inputs_match_the_generator():
    assert _golden()["inputs"] == _inputs()


@pytest.mark.parametrize("name", MODELS)
def test_proxy_matches_golden(name):
    expected = _golden()["models"][name]
    actual = proxy_case(name)
    assert actual["pool_sha256"] == expected["pool_sha256"], (
        f"{name} trained on a different pool"
    )
    assert actual == expected, f"{name} drifted from its golden record"


if __name__ == "__main__":
    written = regenerate()
    print(f"wrote {len(written['models'])} proxy records to {GOLDEN_PATH}")
