"""Graph Isomorphism Network for subgraph classification (OMLA's model).

The architecture mirrors OMLA: ``L`` GIN layers with sum aggregation
(``h' = MLP((1 + eps) h + sum_neighbours h)``), a graph-level sum readout
after every layer (jumping knowledge), concatenation of the per-layer
readouts, and a final linear classifier to two classes (key bit 0 / 1).
"""

from __future__ import annotations

import numpy as np

from repro.ml.autograd import Tensor, segment_sum, spmm
from repro.ml.data import GraphBatch
from repro.ml.layers import Linear, Mlp, Module


class GinLayer(Module):
    """One GIN convolution with a learnable epsilon."""

    def __init__(self, in_features: int, hidden: int, out_features: int, seed: int):
        self.mlp = Mlp(in_features, hidden, out_features, seed=seed)
        self.eps = Tensor(np.zeros(1), requires_grad=True)

    def __call__(self, features: Tensor, batch: GraphBatch) -> Tensor:
        aggregated = spmm(batch.adjacency, features)
        one = Tensor(np.ones(1))
        scaled_self = features * (one + self.eps)
        return self.mlp(scaled_self + aggregated).relu()


class GinClassifier(Module):
    """GIN + jumping-knowledge readout + linear head (binary output)."""

    def __init__(
        self,
        in_features: int,
        hidden: int = 32,
        num_layers: int = 3,
        seed: int = 0,
    ):
        self.layers = [
            GinLayer(
                in_features if i == 0 else hidden,
                hidden,
                hidden,
                seed=seed + 10 * i,
            )
            for i in range(num_layers)
        ]
        readout_width = in_features + hidden * num_layers
        self.head = Linear(readout_width, 2, seed=seed + 999)

    def __call__(self, batch: GraphBatch) -> Tensor:
        features = Tensor(batch.features)
        readout = segment_sum(features, batch.graph_ids, batch.num_graphs)
        hidden = features
        for layer in self.layers:
            hidden = layer(hidden, batch)
            readout = readout.concat(
                segment_sum(hidden, batch.graph_ids, batch.num_graphs)
            )
        return self.head(readout)

    def predict(self, batch: GraphBatch) -> np.ndarray:
        """Hard 0/1 predictions (no gradient tracking needed)."""
        logits = self(batch)
        return logits.data.argmax(axis=-1)

    def predict_proba(self, batch: GraphBatch) -> np.ndarray:
        logits = self(batch).data
        shifted = logits - logits.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=-1, keepdims=True)
