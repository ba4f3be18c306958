"""Tests for the ML substrate: autograd gradients, layers, GIN, training."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MLError
from repro.ml import (
    Adam,
    GinClassifier,
    GraphData,
    Linear,
    Mlp,
    Tensor,
    cross_entropy,
    pack_graphs,
    train_classifier,
    TrainConfig,
)
from repro.ml.autograd import log_softmax, segment_sum, spmm
from repro.ml.train import evaluate_accuracy
from repro.utils.rng import make_rng


def numeric_gradient(fn, array, eps=1e-6):
    grad = np.zeros_like(array)
    it = np.nditer(array, flags=["multi_index"])
    while not it.finished:
        index = it.multi_index
        original = array[index]
        array[index] = original + eps
        plus = fn()
        array[index] = original - eps
        minus = fn()
        array[index] = original
        grad[index] = (plus - minus) / (2 * eps)
        it.iternext()
    return grad


class TestAutograd:
    def test_backward_requires_scalar(self):
        t = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(MLError):
            t.backward()

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=10, deadline=None)
    def test_matmul_add_relu_grads(self, seed):
        rng = make_rng(seed)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(2,)), requires_grad=True)

        def forward():
            return float(
                (Tensor(x.data).matmul(Tensor(w.data)) + Tensor(b.data))
                .relu()
                .sum()
                .data
            )

        loss = (x.matmul(w) + b).relu().sum()
        loss.backward()
        for tensor in (x, w, b):
            numeric = numeric_gradient(
                lambda t=tensor: _loss_with(x, w, b), tensor.data
            )
            assert np.allclose(tensor.grad, numeric, atol=1e-5)

    def test_mul_and_scale(self):
        a = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        b = Tensor(np.array([4.0, 5.0]), requires_grad=True)
        loss = (a * b).sum()
        loss.backward()
        assert np.allclose(a.grad, b.data)
        assert np.allclose(b.grad, a.data)
        a.zero_grad()
        a.scale(3.0).sum().backward()
        assert np.allclose(a.grad, [3.0, 3.0])

    def test_log_softmax_rows_normalize(self):
        logits = Tensor(np.array([[1.0, 2.0, 3.0]]), requires_grad=True)
        out = log_softmax(logits)
        assert np.isclose(np.exp(out.data).sum(), 1.0)

    def test_cross_entropy_gradient(self):
        rng = make_rng(3)
        logits_data = rng.normal(size=(5, 3))
        labels = np.array([0, 2, 1, 1, 0])
        logits = Tensor(logits_data.copy(), requires_grad=True)
        loss = cross_entropy(logits, labels)
        loss.backward()
        numeric = numeric_gradient(
            lambda: float(
                cross_entropy(Tensor(logits_data), labels).data
            ),
            logits_data,
        )
        assert np.allclose(logits.grad, numeric, atol=1e-6)

    def test_spmm_gradient(self):
        rng = make_rng(4)
        adjacency = sp.csr_matrix(
            (np.ones(4), ([0, 1, 2, 2], [1, 0, 0, 1])), shape=(3, 3)
        )
        x_data = rng.normal(size=(3, 2))
        x = Tensor(x_data.copy(), requires_grad=True)
        spmm(adjacency, x).sum().backward()
        numeric = numeric_gradient(
            lambda: float((adjacency @ x_data).sum()), x_data
        )
        assert np.allclose(x.grad, numeric, atol=1e-6)

    def test_segment_sum_gradient(self):
        x = Tensor(np.arange(6, dtype=float).reshape(3, 2), requires_grad=True)
        ids = np.array([0, 1, 1])
        out = segment_sum(x, ids, 2)
        assert np.allclose(out.data, [[0, 1], [6, 8]])
        out.sum().backward()
        assert np.allclose(x.grad, np.ones((3, 2)))

    def test_concat_gradient(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        a.concat(b).sum().backward()
        assert a.grad.shape == (2, 2)
        assert b.grad.shape == (2, 3)


def _loss_with(x, w, b):
    return float(
        (Tensor(x.data).matmul(Tensor(w.data)) + Tensor(b.data))
        .relu()
        .sum()
        .data
    )


class TestGraphData:
    def test_pack_block_diagonal(self):
        g1 = GraphData(np.ones((2, 3)), np.array([[0, 1]]), label=0)
        g2 = GraphData(np.ones((3, 3)), np.array([[0, 2]]), label=1)
        batch = pack_graphs([g1, g2])
        assert batch.features.shape == (5, 3)
        assert batch.adjacency.shape == (5, 5)
        assert batch.adjacency[0, 1] == 1
        assert batch.adjacency[2, 4] == 1  # offset by first graph
        assert list(batch.graph_ids) == [0, 0, 1, 1, 1]
        assert list(batch.labels) == [0, 1]

    def test_edge_bounds_checked(self):
        with pytest.raises(MLError):
            GraphData(np.ones((2, 3)), np.array([[0, 5]]), label=0)

    def test_empty_pack_rejected(self):
        with pytest.raises(MLError):
            pack_graphs([])

    def test_graph_without_edges(self):
        g = GraphData(np.ones((2, 3)), np.zeros((0, 2)), label=1)
        batch = pack_graphs([g])
        assert batch.adjacency.nnz == 0


class TestTraining:
    def _labeled_graphs(self, count=120, signal="feature", seed=0):
        rng = make_rng(seed)
        graphs = []
        for i in range(count):
            label = i % 2
            n = 6
            feats = rng.normal(size=(n, 4))
            if signal == "feature":
                feats[:, 0] += 2.0 * label
                edges = np.array([[j, (j + 1) % n] for j in range(n)])
            else:  # structural signal: label 1 graphs are cliques
                if label:
                    edges = np.array(
                        [[u, v] for u in range(n) for v in range(u + 1, n)]
                    )
                else:
                    edges = np.array([[j, (j + 1) % n] for j in range(n)])
            graphs.append(GraphData(feats, edges, label))
        return graphs

    def test_learns_feature_signal(self):
        graphs = self._labeled_graphs(signal="feature")
        model = GinClassifier(4, hidden=16, num_layers=2, seed=1)
        result = train_classifier(
            model, graphs, TrainConfig(epochs=12, seed=2)
        )
        assert result.train_accuracy[-1] > 0.9

    def test_learns_structural_signal(self):
        graphs = self._labeled_graphs(signal="structure", seed=5)
        model = GinClassifier(4, hidden=16, num_layers=2, seed=3)
        result = train_classifier(
            model, graphs, TrainConfig(epochs=30, seed=4)
        )
        assert result.train_accuracy[-1] > 0.85

    def test_loss_decreases(self):
        graphs = self._labeled_graphs()
        model = GinClassifier(4, hidden=8, num_layers=2, seed=7)
        result = train_classifier(model, graphs, TrainConfig(epochs=10, seed=8))
        assert result.train_loss[-1] < result.train_loss[0]

    def test_extra_graphs_provider_called(self):
        graphs = self._labeled_graphs(count=40)
        calls = []

        def provider(epoch):
            calls.append(epoch)
            return []

        model = GinClassifier(4, hidden=8, num_layers=1, seed=9)
        train_classifier(
            model,
            graphs,
            TrainConfig(epochs=5, seed=1),
            extra_graphs_provider=provider,
        )
        assert calls == list(range(5))

    def test_state_dict_roundtrip(self):
        model = GinClassifier(4, hidden=8, num_layers=2, seed=11)
        state = model.state_dict()
        batch = pack_graphs(self._labeled_graphs(count=4))
        before = model(batch).data.copy()
        for param in model.parameters():
            param.data += 1.0
        model.load_state_dict(state)
        assert np.allclose(model(batch).data, before)

    def test_empty_training_rejected(self):
        model = GinClassifier(4, seed=0)
        with pytest.raises(MLError):
            train_classifier(model, [])
        with pytest.raises(MLError):
            evaluate_accuracy(model, [])
