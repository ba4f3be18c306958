"""Proxy attack models: M_resyn2, M_random and the adversarial M*.

A proxy model predicts, without running a fresh end-to-end attack, how well
an OMLA-class attacker would do against the locked design synthesized with an
arbitrary recipe.  The three variants differ only in training data (paper
Sec. IV-A):

* ``M_resyn2`` — relock + resynthesize with the baseline ``resyn2`` only;
* ``M_random`` — relock + resynthesize with random length-10 recipes;
* ``M*``       — adversarial data augmentation (Algorithm 1).

Scoring is built for the batched search engine: recipes are memoized in a
bounded LRU keyed on the full step tuple, synthesis goes through a
state-keyed :class:`~repro.synth.cache.SynthCache` (a recipe step already
run on the same AIG state is served, not re-run), and
:meth:`ProxyModel.predicted_accuracy_batch` scores a whole candidate batch
in one vectorized GNN pass.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.aig.aig import Aig
from repro.aig.build import aig_from_netlist
from repro.attacks.base import AttackResult
from repro.attacks.omla import OmlaAttack, OmlaConfig
from repro.locking.rll import LockedCircuit
from repro.synth.cache import SynthCache
from repro.synth.engine import synthesize_mapped
from repro.synth.recipe import RESYN2, Recipe, random_recipe
from repro.utils.rng import derive_seed


@dataclass
class ProxyConfig:
    """Training-budget knobs shared by all proxy variants (scaled down)."""

    num_samples: int = 200          # paper: 1000 initial samples
    epochs: int = 40                # paper: 350
    relock_key_bits: int = 24
    num_random_recipes: int = 8     # distinct recipes behind M_random
    recipe_length: int = 10
    hops: int = 3
    seed: int = 0


@dataclass
class ProxyModel:
    """A trained accuracy evaluator bound to one locked circuit.

    ``_cache`` memoizes predicted accuracies keyed on the **full recipe
    step tuple** (the seed keyed on ``recipe.short()`` and never evicted),
    bounded to ``cache_size`` entries with LRU eviction.  ``synth_cache``
    holds AIG states and the recipe steps between them, so the search
    engine's one-step mutations run only the steps no earlier candidate ran
    on the same state; pass ``None`` to disable.
    """

    name: str
    attack: OmlaAttack
    locked: LockedCircuit
    cache_size: int = 1024
    synth_cache: Optional[SynthCache] = field(default_factory=SynthCache)
    _cache: "OrderedDict[tuple[str, ...], float]" = field(
        default_factory=OrderedDict
    )
    _source: Optional[Aig] = field(
        default=None, init=False, repr=False, compare=False
    )

    # -- memo table -------------------------------------------------------

    def _cache_get(self, key: tuple[str, ...]) -> Optional[float]:
        value = self._cache.get(key)
        if value is not None:
            self._cache.move_to_end(key)
        return value

    def _cache_put(self, key: tuple[str, ...], value: float) -> None:
        self._cache[key] = value
        self._cache.move_to_end(key)
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)

    # -- scoring ----------------------------------------------------------

    def _synthesize(self, recipe: Recipe):
        """Cached synthesis of the locked netlist under ``recipe``, mapped.

        The netlist is converted to an AIG once; each recipe runs on a
        clone of it, which synthesizes exactly as the original would (the
        exact-resume contract of :mod:`repro.synth.cache`).
        """
        if self._source is None:
            self._source = aig_from_netlist(self.locked.netlist)
        return synthesize_mapped(
            self._source.clone(), recipe, cache=self.synth_cache
        )

    def predicted_accuracy(self, recipe: Recipe) -> float:
        """Attack accuracy the proxy predicts for ``recipe``.

        The defender owns the locked circuit and its key, so the predicted
        accuracy is measured exactly: synthesize with the recipe, run the
        proxy on the victim key localities, compare with the true key.
        """
        return self.predicted_accuracy_batch([recipe])[0]

    def predicted_accuracy_batch(
        self, recipes: Sequence[Recipe], score=None
    ) -> list[float]:
        """Score a whole candidate batch in one vectorized GNN pass.

        Memo hits and in-batch duplicates are resolved first; the remaining
        unique recipes are synthesized (cached) and scored together by
        :meth:`~repro.attacks.omla.OmlaAttack.predict_circuits`, one
        model forward for the lot.  ``score`` replaces that last step
        (``recipes -> accuracies``, e.g. a worker pool's fan-out), so the
        memo stays here whoever scores the misses.
        """
        results: list[Optional[float]] = [None] * len(recipes)
        pending: "OrderedDict[tuple[str, ...], list[int]]" = OrderedDict()
        for index, recipe in enumerate(recipes):
            cached = self._cache_get(recipe.steps)
            if cached is not None:
                results[index] = cached
            else:
                pending.setdefault(recipe.steps, []).append(index)
        if pending:
            misses = [Recipe(steps) for steps in pending]
            scored = (score or self._score_misses)(misses)
            for steps, accuracy in zip(pending, scored):
                self._cache_put(steps, accuracy)
                for index in pending[steps]:
                    results[index] = accuracy
        return [float(value) for value in results]

    def _score_misses(self, recipes: Sequence[Recipe]) -> list[float]:
        predictions = self.attack.predict_circuits(
            [self._synthesize(recipe) for recipe in recipes]
        )
        return [
            AttackResult(bits, true_key=self.locked.key).accuracy
            for bits, _confidence in predictions
        ]

    def predicted_accuracy_on_circuit(self, mapped) -> float:
        """Accuracy against an externally synthesized mapped circuit."""
        return self.attack.accuracy_on(mapped, self.locked.key)


def _omla_config(config: ProxyConfig, tag: str) -> OmlaConfig:
    return OmlaConfig(
        hops=config.hops,
        epochs=config.epochs,
        relock_key_bits=config.relock_key_bits,
        seed=derive_seed(config.seed, tag),
    )


def _train_proxy(
    locked: LockedCircuit,
    config: ProxyConfig,
    name: str,
    tag: str,
    recipes: Sequence[Recipe],
) -> ProxyModel:
    """Train an OMLA proxy on relock rounds synthesized with ``recipes``."""
    attack = OmlaAttack(RESYN2, _omla_config(config, tag))
    attack.train(
        attack.generate_training_data(
            locked.netlist,
            num_samples=config.num_samples,
            recipes=recipes,
            seed=derive_seed(config.seed, f"{tag}-data"),
        )
    )
    return ProxyModel(name=name, attack=attack, locked=locked)


def build_resyn2_proxy(
    locked: LockedCircuit, config: Optional[ProxyConfig] = None
) -> ProxyModel:
    """``M_resyn2``: trained only on the baseline recipe's localities."""
    config = config if config is not None else ProxyConfig()
    return _train_proxy(locked, config, "M_resyn2", "resyn2", [RESYN2])


def build_random_proxy(
    locked: LockedCircuit, config: Optional[ProxyConfig] = None
) -> ProxyModel:
    """``M_random``: trained on random length-10 recipes."""
    config = config if config is not None else ProxyConfig()
    recipes = [
        random_recipe(
            config.recipe_length, seed=derive_seed(config.seed, "recipe", i)
        )
        for i in range(config.num_random_recipes)
    ]
    return _train_proxy(locked, config, "M_random", "random", recipes)
