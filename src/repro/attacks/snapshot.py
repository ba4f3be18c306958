"""SnapShot-style attack: MLP over flattened locality encodings.

SnapShot (Sisejkovic et al., ACM JETC 2021) predates OMLA and works on a
fixed-size vector encoding of the key-gate locality rather than a graph.
Here each locality is flattened into per-hop gate-type histograms, and a
small MLP classifies the key bit.  Included as the paper's Sec. II mentions
it among the tensor-based oracle-less attacks.  Its MLP train/attack loop,
:class:`LocalityMlpAttack`, is shared with SAIL (:mod:`repro.attacks.sail`),
which differs only in the encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional, Sequence

import numpy as np

from repro.attacks.base import AttackResult
from repro.attacks.subgraph import _TYPE_SLOTS, LocalityExtractor, victim_key_inputs
from repro.errors import AttackError
from repro.locking.key import Key
from repro.ml.autograd import Tensor, cross_entropy
from repro.ml.data import GraphData
from repro.ml.layers import Mlp
from repro.ml.optim import Adam
from repro.utils.rng import derive_seed, make_rng


def flatten_locality(graph: GraphData, hops: int) -> np.ndarray:
    """Per-hop gate-type histograms concatenated into one vector."""
    num_types = len(_TYPE_SLOTS)
    distance_col = num_types + 2
    vector = np.zeros((hops + 1) * num_types)
    for row in graph.features:
        hop = int(round(row[distance_col] * hops))
        hop = min(hop, hops)
        type_index = int(row[:num_types].argmax())
        vector[hop * num_types + type_index] += 1.0
    return vector


@dataclass
class LocalityMlpAttack:
    """An MLP over fixed-length locality encodings, trained like OMLA.

    The shared train/attack loop of SnapShot and SAIL.  A subclass
    supplies only :meth:`encode` (one locality to one vector),
    ``max_nodes`` (the extractor's node budget), ``attack_name`` and
    ``seed_tags`` (the model-init and minibatch-order seed tags).
    """

    hops: int = 3
    hidden: int = 48
    epochs: int = 80
    lr: float = 3e-3
    seed: int = 0

    max_nodes: ClassVar[int]
    attack_name: ClassVar[str]
    seed_tags: ClassVar[tuple[str, str]]

    def __post_init__(self) -> None:
        self._model: Optional[Mlp] = None

    def encode(self, graph: GraphData) -> np.ndarray:
        raise NotImplementedError

    def train(self, graphs: Sequence[GraphData]) -> None:
        if not graphs:
            raise AttackError(f"{self.attack_name} training requires localities")
        features = np.vstack([self.encode(g) for g in graphs])
        labels = np.array([g.label for g in graphs], dtype=np.int64)
        model_tag, order_tag = self.seed_tags
        self._model = Mlp(
            features.shape[1], self.hidden, 2,
            seed=derive_seed(self.seed, model_tag),
        )
        optimizer = Adam(self._model.parameters(), lr=self.lr)
        rng = make_rng(derive_seed(self.seed, order_tag))
        for _epoch in range(self.epochs):
            order = rng.permutation(len(labels))
            for start in range(0, len(labels), 64):
                block = order[start: start + 64]
                optimizer.zero_grad()
                logits = self._model(Tensor(features[block]))
                loss = cross_entropy(logits, labels[block])
                loss.backward()
                optimizer.step()

    def attack(
        self,
        circuit,
        true_key: Optional[Key] = None,
        key_nets: Optional[Sequence[str]] = None,
    ) -> AttackResult:
        if self._model is None:
            raise AttackError(f"{self.attack_name} model is not trained")
        key_nets = (
            list(key_nets) if key_nets is not None else victim_key_inputs(circuit)
        )
        if not key_nets:
            raise AttackError("circuit has no key inputs to attack")
        extractor = LocalityExtractor(
            circuit, hops=self.hops, max_nodes=self.max_nodes
        )
        features = np.vstack(
            [self.encode(extractor.extract(net, 0)) for net in key_nets]
        )
        logits = self._model(Tensor(features)).data
        shifted = logits - logits.max(axis=-1, keepdims=True)
        probs = np.exp(shifted)
        probs /= probs.sum(axis=-1, keepdims=True)
        return AttackResult(
            predicted_bits=tuple(int(b) for b in logits.argmax(axis=-1)),
            true_key=true_key,
            confidence=tuple(float(p) for p in probs.max(axis=-1)),
            attack_name=self.attack_name,
        )


@dataclass
class SnapShotAttack(LocalityMlpAttack):
    """MLP over flattened localities; trained like OMLA (self-referencing)."""

    max_nodes: ClassVar[int] = 60
    attack_name: ClassVar[str] = "SnapShot"
    seed_tags: ClassVar[tuple[str, str]] = ("mlp", "shuffle")

    def encode(self, graph: GraphData) -> np.ndarray:
        return flatten_locality(graph, self.hops)
