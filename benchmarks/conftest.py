"""Shared benchmark workspace: cached locked circuits, victims and proxies.

Every experiment bench draws from one session-scoped :class:`Workspace`, so
an expensive artifact (a trained proxy model, an ALMOST recipe) is built at
most once per pytest session regardless of how many benches consume it.

Scale is controlled by ``REPRO_SCALE`` (quick | standard | full); see
``repro.reporting.scale`` and docs/benchmarks.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest

from repro.circuits import load_iscas85
from repro.core.adversarial import AdversarialConfig, train_adversarial_attack
from repro.core.almost import AlmostConfig, AlmostDefense, AlmostResult
from repro.core.proxy import (
    ProxyConfig,
    ProxyModel,
    build_random_proxy,
    build_resyn2_proxy,
)
from repro.locking import LockedCircuit, lock_rll
from repro.reporting.scale import Scale, resolve_scale
from repro.synth import RESYN2, Recipe, random_recipe
from repro.synth.engine import synthesize_and_map
from repro.utils.rng import derive_seed

BASE_SEED = 2023  # the DAC year, why not


@dataclass
class Workspace:
    """Lazily built, memoized experiment artifacts."""

    scale: Scale
    _locked: dict = field(default_factory=dict)
    _victims: dict = field(default_factory=dict)
    _proxies: dict = field(default_factory=dict)
    _almost: dict = field(default_factory=dict)
    _random_sets: dict = field(default_factory=dict)

    # -- base artifacts ---------------------------------------------------

    def key_size(self) -> int:
        return self.scale.key_sizes[0]

    def locked(self, name: str, key_size: int | None = None) -> LockedCircuit:
        key_size = key_size if key_size is not None else self.key_size()
        key = (name, key_size)
        if key not in self._locked:
            netlist = load_iscas85(
                name, scale=self.scale.circuit_scale, seed=BASE_SEED
            )
            self._locked[key] = lock_rll(
                netlist, key_size=key_size, seed=derive_seed(BASE_SEED, name)
            )
        return self._locked[key]

    def victim(self, name: str, recipe: Recipe = RESYN2, key_size=None):
        """(netlist, mapped) of the locked circuit under ``recipe``."""
        key = (name, recipe.short(), key_size)
        if key not in self._victims:
            locked = self.locked(name, key_size)
            self._victims[key] = synthesize_and_map(locked.netlist, recipe)
        return self._victims[key]

    # -- proxies -------------------------------------------------------------

    def proxy_config(self, name: str) -> ProxyConfig:
        return ProxyConfig(
            num_samples=self.scale.proxy_samples,
            epochs=self.scale.proxy_epochs,
            relock_key_bits=min(self.key_size() * 2, 48),
            num_random_recipes=max(4, self.scale.random_set_size // 2),
            seed=derive_seed(BASE_SEED, "proxy", name),
        )

    def proxy(self, name: str, variant: str) -> ProxyModel:
        key = (name, variant)
        if key not in self._proxies:
            locked = self.locked(name)
            config = self.proxy_config(name)
            if variant == "M_resyn2":
                self._proxies[key] = build_resyn2_proxy(locked, config)
            elif variant == "M_random":
                self._proxies[key] = build_random_proxy(locked, config)
            elif variant == "M*":
                self._proxies[key] = train_adversarial_attack(
                    locked,
                    config,
                    AdversarialConfig(
                        period=self.scale.adv_period,
                        augment_samples=self.scale.adv_augment,
                        sa_iterations=max(2, self.scale.sa_iterations // 4),
                        max_rounds=self.scale.adv_rounds,
                    ),
                )
            else:
                raise ValueError(f"unknown proxy variant {variant!r}")
        return self._proxies[key]

    # -- random recipe set (Table I) --------------------------------------------

    def random_recipe_set(self, count: int | None = None) -> list[Recipe]:
        count = count if count is not None else self.scale.random_set_size
        if count not in self._random_sets:
            self._random_sets[count] = [
                random_recipe(10, seed=derive_seed(BASE_SEED, "randset", i))
                for i in range(count)
            ]
        return self._random_sets[count]

    # -- ALMOST runs ------------------------------------------------------------

    def almost(self, name: str, variant: str = "M*") -> AlmostResult:
        key = (name, variant)
        if key not in self._almost:
            proxy = self.proxy(name, variant)
            defense = AlmostDefense(
                proxy,
                AlmostConfig(
                    sa_iterations=self.scale.sa_iterations,
                    seed=derive_seed(BASE_SEED, "almost", name, variant),
                ),
            )
            self._almost[key] = defense.generate_recipe()
        return self._almost[key]


@pytest.fixture(scope="session")
def workspace() -> Workspace:
    return Workspace(scale=resolve_scale())


@pytest.fixture(scope="session")
def scale() -> Scale:
    return resolve_scale()
