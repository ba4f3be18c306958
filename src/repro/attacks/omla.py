"""OMLA: oracle-less ML attack via GNN subgraph classification.

The attack (Alrahis et al., IEEE TCAS-II 2022) proceeds in three steps:

1. **self-referencing data generation** — re-lock the netlist under attack
   with key bits the attacker chose, re-synthesize with the defender's
   recipe, and extract labeled key-gate localities;
2. **training** — fit a GIN subgraph classifier on those localities;
3. **inference** — extract the localities of the *victim* key inputs and
   predict their key bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.aig.build import aig_from_netlist
from repro.attacks.base import AttackResult
from repro.attacks.subgraph import (
    FEATURE_DIM,
    extract_localities,
    victim_key_inputs,
)
from repro.errors import AttackError
from repro.locking.key import Key
from repro.locking.relock import relock
from repro.ml.data import GraphData, pack_graph_groups
from repro.ml.gnn import GinClassifier
from repro.ml.train import TrainConfig, train_classifier
from repro.netlist.netlist import Netlist
from repro.synth.engine import synthesize_mapped
from repro.synth.recipe import Recipe
from repro.utils.rng import derive_seed


@dataclass
class OmlaConfig:
    """Attack hyper-parameters (scaled-down OMLA defaults).

    The locality budget, GIN width/depth and optimizer settings are the
    defaults of :class:`~repro.attacks.subgraph.LocalityExtractor`,
    :class:`~repro.ml.gnn.GinClassifier` and :mod:`repro.ml.train`.
    """

    hops: int = 3
    epochs: int = 40
    relock_key_bits: int = 32      # key gates added per relock round
    num_relocks: int = 4           # rounds of relock + resynthesize
    seed: int = 0


class OmlaAttack:
    """A trainable OMLA attacker bound to one synthesis recipe."""

    def __init__(self, recipe: Recipe, config: Optional[OmlaConfig] = None):
        self.recipe = recipe
        self.config = config if config is not None else OmlaConfig()
        self.model: Optional[GinClassifier] = None

    # -- data generation --------------------------------------------------

    def relock_round(
        self,
        locked_netlist: Netlist,
        recipe: Recipe,
        seed: int,
        cache=None,
    ) -> list[GraphData]:
        """One self-referencing round: relock, resynthesize, extract.

        Adds ``relock_key_bits`` attacker-known key gates (``seed`` picks
        them), synthesizes with ``recipe`` through the optional exact
        :class:`~repro.synth.cache.SynthCache` and returns one labeled
        locality per new key input.
        """
        relocked = relock(
            locked_netlist, key_size=self.config.relock_key_bits, seed=seed
        )
        mapped = synthesize_mapped(
            aig_from_netlist(relocked.netlist), recipe, cache=cache
        )
        return extract_localities(
            mapped,
            relocked.key_input_names,
            relocked.key.bits,
            hops=self.config.hops,
        )

    def generate_training_data(
        self,
        locked_netlist: Netlist,
        num_samples: Optional[int] = None,
        recipes: Optional[Sequence[Recipe]] = None,
        seed: Optional[int] = None,
    ) -> list[GraphData]:
        """Self-referencing training data from :meth:`relock_round` calls.

        Rounds run until ``num_samples`` localities exist (then the list
        is cut to that size), or ``num_relocks`` rounds when it is None.
        ``recipes`` optionally varies the synthesis recipe per round (used
        to build the ``M_random`` and adversarial ``M*`` training sets);
        by default every round uses the attack's bound recipe.
        """
        config = self.config
        seed = config.seed if seed is None else seed
        graphs: list[GraphData] = []
        round_index = 0
        while (
            len(graphs) < num_samples
            if num_samples is not None
            else round_index < config.num_relocks
        ):
            recipe = (
                recipes[round_index % len(recipes)]
                if recipes
                else self.recipe
            )
            graphs.extend(
                self.relock_round(
                    locked_netlist,
                    recipe,
                    derive_seed(seed, "relock", round_index),
                )
            )
            round_index += 1
        return graphs[:num_samples]

    # -- training -----------------------------------------------------------

    def train(
        self,
        graphs: Sequence[GraphData],
        extra_graphs_provider=None,
    ) -> GinClassifier:
        """Fit the GIN classifier; stores and returns the model."""
        if not graphs:
            raise AttackError("OMLA training requires labeled localities")
        config = self.config
        self.model = GinClassifier(
            in_features=FEATURE_DIM, seed=derive_seed(config.seed, "model")
        )
        train_classifier(
            self.model,
            graphs,
            TrainConfig(
                epochs=config.epochs, seed=derive_seed(config.seed, "train")
            ),
            extra_graphs_provider=extra_graphs_provider,
        )
        return self.model

    # -- inference -------------------------------------------------------------

    def predict_circuits(
        self, circuits: Sequence
    ) -> list[tuple[tuple[int, ...], tuple[float, ...]]]:
        """Predicted key bits and confidences for each circuit's key inputs.

        Each circuit may be a primitive netlist or a mapped circuit; mapped
        views carry the richer cell vocabulary the model was trained on.
        Every circuit's victim localities share one block-diagonal batch,
        so the whole list costs a single GIN forward.  A bit is the argmax
        of its softmax, its confidence the winning probability.
        """
        if self.model is None:
            raise AttackError("attack model is not trained")
        groups = []
        for circuit in circuits:
            key_nets = victim_key_inputs(circuit)
            if not key_nets:
                raise AttackError("circuit has no key inputs to attack")
            groups.append(
                extract_localities(
                    circuit,
                    key_nets,
                    [0] * len(key_nets),  # placeholder labels
                    hops=self.config.hops,
                )
            )
        batch, slices = pack_graph_groups(groups)
        probabilities = self.model.predict_proba(batch)
        bits = probabilities.argmax(axis=-1)
        confidence = probabilities.max(axis=-1)
        return [
            (
                tuple(int(b) for b in bits[part]),
                tuple(float(c) for c in confidence[part]),
            )
            for part in slices
        ]

    def attack(self, circuit, true_key: Optional[Key] = None) -> AttackResult:
        """Run inference against the victim key inputs of ``circuit``."""
        [(bits, confidence)] = self.predict_circuits([circuit])
        return AttackResult(
            predicted_bits=bits,
            true_key=true_key,
            confidence=confidence,
            attack_name="OMLA",
            details={"recipe": str(self.recipe)},
        )

    def accuracy_on(self, circuit, true_key: Key) -> float:
        """Convenience: attack accuracy against a circuit with known key."""
        return self.attack(circuit, true_key).accuracy
