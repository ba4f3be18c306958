"""Adversarial attack-model training — the paper's Algorithm 1.

``M*`` is trained like ``M_random`` but, every ``period`` epochs, a short
simulated-annealing run searches the recipe space for an *adversarial
recipe* ``S_adv`` on which the current model mispredicts the most (maximum
loss, Eq. 3); fresh relock localities synthesized with ``S_adv`` are then
appended to the training pool (the min-max objective of Eq. 6).  The result
is a proxy that stays accurate across the whole recipe space rather than
near one recipe.

Every locality comes from :meth:`~repro.attacks.omla.OmlaAttack.relock_round`,
the same round OMLA's own training data uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.attacks.omla import OmlaAttack
from repro.core.proxy import ProxyConfig, ProxyModel, _omla_config
from repro.core.search import SearchConfig, SearchProblem, run_search
from repro.locking.rll import LockedCircuit
from repro.ml.data import GraphData
from repro.ml.train import evaluate_accuracy
from repro.synth.cache import SynthCache
from repro.synth.recipe import Recipe, mutate_step, random_recipe
from repro.utils.rng import derive_seed


@dataclass
class AdversarialConfig:
    """Algorithm 1 knobs (scaled-down versions of the paper's values).

    The inner SA uses :class:`~repro.core.search.SearchConfig`'s annealing
    schedule.
    """

    period: int = 10                # paper R = 50
    augment_samples: int = 40       # paper: 200 per SA round
    sa_iterations: int = 8          # inner SA budget per round
    max_rounds: int = 3


def train_adversarial_attack(
    locked: LockedCircuit,
    config: Optional[ProxyConfig] = None,
    adv_config: Optional[AdversarialConfig] = None,
) -> ProxyModel:
    """Train ``M*`` per Algorithm 1 and wrap it as a proxy model."""
    config = config if config is not None else ProxyConfig()
    adv_config = adv_config if adv_config is not None else AdversarialConfig()
    attack = OmlaAttack(
        recipe=random_recipe(
            config.recipe_length, seed=derive_seed(config.seed, "adv-base")
        ),
        config=_omla_config(config, "adversarial"),
    )
    # Step 1-2 of Algorithm 1: initial pool from random length-10 recipes.
    initial_recipes = [
        random_recipe(
            config.recipe_length, seed=derive_seed(config.seed, "adv-recipe", i)
        )
        for i in range(config.num_random_recipes)
    ]
    initial_data = attack.generate_training_data(
        locked.netlist,
        num_samples=config.num_samples,
        recipes=initial_recipes,
        seed=derive_seed(config.seed, "adv-data"),
    )
    rounds_done = 0
    # One bounded synthesis cache across every adversarial round: each
    # relocked circuit starts its own chain of states, and the top-up
    # loop's repeated S_adv synthesis is served instead of rerun.
    # Snapshots are exact, so M* is bit-identical to an uncached run.
    synth_cache = SynthCache(max_entries=256)

    def extra_graphs_provider(epoch: int) -> list[GraphData]:
        nonlocal rounds_done
        if (
            epoch == 0
            or epoch % adv_config.period != 0
            or rounds_done >= adv_config.max_rounds
        ):
            return []
        rounds_done += 1
        round_seed = derive_seed(config.seed, "adv-round", rounds_done)
        collected: dict[tuple[str, ...], list[GraphData]] = {}

        def energy(recipe: Recipe) -> float:
            """Model accuracy on fresh relock localities under ``recipe``.

            Lower accuracy = higher loss = better adversarial sample
            source, so SA minimizes this value directly (Eq. 3's argmax of
            loss).
            """
            graphs = attack.relock_round(
                locked.netlist,
                recipe,
                # recipe.short() kept as the relock-seed tag so the derived
                # streams (and therefore M*) match the seed trainer exactly.
                derive_seed(round_seed, recipe.short()),
                cache=synth_cache,
            )
            collected[recipe.steps] = graphs
            return evaluate_accuracy(attack.model, graphs)

        start = random_recipe(
            config.recipe_length, seed=derive_seed(round_seed, "start")
        )
        result = run_search(
            SearchProblem(initial=start, neighbour=mutate_step),
            lambda recipes: [energy(recipe) for recipe in recipes],
            strategy="sa",
            config=SearchConfig(
                iterations=adv_config.sa_iterations,
                seed=derive_seed(round_seed, "sa"),
            ),
        )
        adversarial_recipe = result.best_state
        graphs = collected.get(adversarial_recipe.steps, [])
        # Top up to the augmentation budget with fresh relocks of S_adv.
        top_up = 0
        while len(graphs) < adv_config.augment_samples:
            top_up += 1
            graphs = graphs + attack.relock_round(
                locked.netlist,
                adversarial_recipe,
                derive_seed(round_seed, "topup", top_up),
                cache=synth_cache,
            )
        return graphs[: adv_config.augment_samples]

    # Build the model, then train with periodic augmentation (steps 3-9).
    attack.train(initial_data, extra_graphs_provider=extra_graphs_provider)
    return ProxyModel(name="M*", attack=attack, locked=locked)
