"""Training loop for graph classifiers.

Adam runs with the fixed batch size, learning rate and weight decay
below.  Pools of more than four graphs hold out a tenth (at least one
graph) as the paper's 9:1 train/validation split, and the weights of the
epoch with the best validation accuracy (the last one on a tie) are
restored at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.errors import MLError
from repro.ml.autograd import cross_entropy
from repro.ml.data import GraphData, pack_graphs
from repro.ml.gnn import GinClassifier
from repro.ml.optim import Adam
from repro.utils.rng import make_rng

BATCH_SIZE = 64
LR = 5e-3
WEIGHT_DECAY = 1e-5
VAL_FRACTION = 0.1


@dataclass
class TrainConfig:
    """Hyper-parameters for :func:`train_classifier`."""

    epochs: int = 60
    seed: int = 0


@dataclass
class TrainResult:
    """Per-epoch loss/accuracy history on the training split."""

    train_loss: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)


def evaluate_accuracy(model: GinClassifier, graphs: Sequence[GraphData]) -> float:
    """Fraction of graphs whose label the model predicts correctly."""
    if not graphs:
        raise MLError("cannot evaluate on an empty dataset")
    batch = pack_graphs(list(graphs))
    predictions = model.predict(batch)
    return float((predictions == batch.labels).mean())


def train_classifier(
    model: GinClassifier,
    graphs: Sequence[GraphData],
    config: Optional[TrainConfig] = None,
    extra_graphs_provider: Optional[
        Callable[[int], Sequence[GraphData]]
    ] = None,
) -> TrainResult:
    """Train ``model`` on labeled subgraphs.

    ``extra_graphs_provider(epoch)`` may return new graphs to append to the
    training pool before the epoch runs (Algorithm 1's data augmentation).
    """
    config = config if config is not None else TrainConfig()
    rng = make_rng(config.seed)
    pool = list(graphs)
    if not pool:
        raise MLError("training requires at least one graph")
    perm = rng.permutation(len(pool))
    num_val = max(1, int(len(pool) * VAL_FRACTION)) if len(pool) > 4 else 0
    val_set = [pool[i] for i in perm[:num_val]]
    train_set = [pool[i] for i in perm[num_val:]]

    optimizer = Adam(model.parameters(), lr=LR, weight_decay=WEIGHT_DECAY)
    result = TrainResult()
    best_accuracy, best_state = 0.0, None
    for epoch in range(config.epochs):
        if extra_graphs_provider is not None:
            extra = list(extra_graphs_provider(epoch))
            if extra:
                train_set.extend(extra)
        order = rng.permutation(len(train_set))
        epoch_loss = 0.0
        correct = 0
        for start in range(0, len(train_set), BATCH_SIZE):
            index_block = order[start: start + BATCH_SIZE]
            batch = pack_graphs([train_set[i] for i in index_block])
            optimizer.zero_grad()
            logits = model(batch)
            loss = cross_entropy(logits, batch.labels)
            loss.backward()
            optimizer.step()
            epoch_loss += float(loss.data) * len(index_block)
            correct += int((logits.data.argmax(axis=-1) == batch.labels).sum())
        result.train_loss.append(epoch_loss / len(train_set))
        result.train_accuracy.append(correct / len(train_set))
        if val_set:
            val_accuracy = evaluate_accuracy(model, val_set)
            if val_accuracy >= best_accuracy:
                best_accuracy, best_state = val_accuracy, model.state_dict()
    if best_state is not None:
        model.load_state_dict(best_state)
    return result
