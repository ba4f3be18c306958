"""SAIL-style attack: reverting synthesis-induced local changes.

SAIL (Chakraborty et al., AsianHOST 2018) targets XOR/XNOR locking by
learning how synthesis locally transforms the logic around a key gate, then
reverting the transformation to recover the pre-synthesis gate type (which
binds the key bit: XOR -> 0, XNOR -> 1 before bubble pushing).

This implementation follows SAIL's tensor flavour: each key-gate locality is
encoded as an *ordered* sequence of gate-type codes along the shortest-first
BFS of the neighbourhood (capturing "which gate is where" rather than the
bag-of-gates histogram SnapShot uses), and an MLP maps the sequence to the
key bit.  Training data comes from the same self-referencing relock +
resynthesize loop as OMLA.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.attacks.snapshot import LocalityMlpAttack
from repro.attacks.subgraph import _TYPE_SLOTS
from repro.ml.data import GraphData


def sequence_encoding(graph: GraphData, max_gates: int) -> np.ndarray:
    """Ordered locality encoding: one one-hot type block per BFS position.

    Positions beyond the locality size stay zero (padding), so localities of
    different sizes share one fixed-length representation.
    """
    num_types = len(_TYPE_SLOTS)
    vector = np.zeros(max_gates * num_types)
    for position, row in enumerate(graph.features[:max_gates]):
        type_index = int(row[:num_types].argmax())
        vector[position * num_types + type_index] = 1.0
    return vector


@dataclass
class SailAttack(LocalityMlpAttack):
    """Sequence-encoded locality classifier (SAIL-style baseline)."""

    hidden: int = 64
    max_gates: int = 24

    attack_name: ClassVar[str] = "SAIL"
    seed_tags: ClassVar[tuple[str, str]] = ("sail", "order")

    @property
    def max_nodes(self) -> int:
        return self.max_gates

    def encode(self, graph: GraphData) -> np.ndarray:
        return sequence_encoding(graph, self.max_gates)
