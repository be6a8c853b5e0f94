import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgen import nncore as nn
from netgen.graphgen import (
    generate_graph,
    group_inter_loss_oracle,
    group_intra_loss_oracle,
    group_losses,
    sparsity_loss,
)
from netgen.nncore import Param, Tensor


def random_graph_batch(n, v, d, n_classes, seed):
    """Generated graphs plus labels guaranteeing every class appears."""
    rng = np.random.default_rng(seed)
    h_e = rng.standard_normal((n, v, d))
    graphs = generate_graph(Tensor(h_e)).data
    labels = np.concatenate([np.arange(n_classes), rng.integers(0, n_classes, n - n_classes)])
    return graphs, labels


class TestGenerateGraph:
    def test_zero_embedding_gives_half_matrix(self):
        a = generate_graph(Tensor(np.zeros((2, 2)))).data
        assert np.allclose(a, 0.5 * np.ones((2, 2)), atol=1e-15)

    def test_identical_rows_give_equal_entries(self):
        h = np.array([[0.3, -1.2, 0.5], [0.3, -1.2, 0.5]])
        a = generate_graph(Tensor(h)).data
        assert abs(a[0, 1] - a[0, 0]) < 1e-15
        assert abs(a[0, 1] - a[1, 1]) < 1e-15

    def test_matches_independent_recomputation(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal((5, 3))
        a = generate_graph(Tensor(h)).data
        # independent route: plain softmax then explicit outer products
        e = np.exp(h - h.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        expected = np.array([[p[i] @ p[j] for j in range(5)] for i in range(5)])
        assert np.allclose(a, expected, atol=1e-12)
        assert np.all(a > 0) and np.all(a <= 1.0)
        assert np.all(np.diag(a) >= 1.0 / 3 - 1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_invariants_on_random_embeddings(self, seed):
        rng = np.random.default_rng(seed)
        v, d = int(rng.integers(2, 7)), int(rng.integers(2, 6))
        h = Tensor(10.0 * rng.standard_normal((v, d)))
        h_a = nn.softmax(h).data
        a = generate_graph(h).data
        assert np.all(np.abs(h_a.sum(axis=1) - 1.0) < 1e-12)
        assert np.abs(a - a.T).max() <= 1e-9 * max(1.0, np.abs(a).max())
        assert np.all(a > 0) and np.all(a <= 1.0 + 1e-15)
        assert np.all(np.diag(a) >= 1.0 / d - 1e-12)

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((3, 4, 2))
        batched = generate_graph(Tensor(h)).data
        for i in range(3):
            assert np.allclose(batched[i], generate_graph(Tensor(h[i])).data, atol=1e-15)


class TestGroupStats:
    def test_identical_graphs_zero_variance(self):
        g = np.ones((3, 2, 2)) * 0.4
        intra, _ = group_losses(Tensor(g), [0, 0, 0])
        assert intra.item() == 0.0

    def test_hand_checked_one_by_one(self):
        # class 0 {[[0]], [[2]]} has mean [[1]] and variance 1; class 1 is
        # that mean, so it adds no variance and no mean distance
        g = np.array([[[0.0]], [[2.0]], [[1.0]]])
        intra, inter = group_losses(Tensor(g), [0, 0, 1])
        assert inter.item() == 0.0
        assert intra.item() == 1.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=100)
    def test_variance_non_negative(self, seed):
        graphs, labels = random_graph_batch(8, 3, 2, 2, seed)
        for c in (0, 1):
            intra, _ = group_losses(Tensor(graphs[labels == c]), labels[labels == c])
            assert intra.item() >= 0.0


class TestIntraLoss:
    def test_identical_graphs_inside_classes_gives_zero(self):
        g = np.concatenate([np.full((2, 2, 2), 0.25), np.full((3, 2, 2), 0.75)])
        labels = [0, 0, 1, 1, 1]
        assert group_losses(Tensor(g), labels)[0].item() == 0.0

    def test_hand_checked_value(self):
        g = np.array([[[0.0]], [[2.0]]])
        assert group_losses(Tensor(g), [0, 0])[0].item() == 1.0

    def test_always_non_negative_and_matches_direct_definition(self):
        for seed in range(50):
            graphs, labels = random_graph_batch(10, 4, 3, 2, seed)
            fast = group_losses(Tensor(graphs), labels)[0].item()
            assert fast >= 0.0
            direct = 0.0
            for c in (0, 1):
                members = graphs[labels == c]
                mu = members.mean(axis=0)
                direct += float(((members - mu) ** 2).sum(axis=(1, 2)).mean())
            assert abs(fast - direct) <= 1e-6 * max(1.0, abs(direct))

    def test_gradient_flows_to_embeddings(self):
        rng = np.random.default_rng(0)
        h = Param(rng.standard_normal((4, 3, 2)))
        err = nn.gradient_check(
            lambda: group_losses(generate_graph(h), [0, 1, 0, 1])[0],
            [("h", h)],
            seed=0,
        )
        assert err < 1e-4


class TestInterLoss:
    def test_equal_means_give_zero(self):
        g = np.concatenate([np.full((2, 2, 2), 0.5), np.full((2, 2, 2), 0.5)])
        assert group_losses(Tensor(g), [0, 0, 1, 1])[1].item() == 0.0

    def test_hand_checked_ordered_pairs(self):
        # classes {[[0]]} and {[[2]]}: ordered pairs (a,b) and (b,a) each -4
        g = np.array([[[0.0]], [[2.0]]])
        assert group_losses(Tensor(g), [0, 1])[1].item() == -8.0

    def test_single_class_contributes_zero_with_notice(self, caplog):
        g = np.full((3, 2, 2), 0.4)
        with caplog.at_level(logging.INFO, logger="netgen.graphgen"):
            value = group_losses(Tensor(g), [1, 1, 1])[1]
        assert value.item() == 0.0
        assert any("single class" in r.message for r in caplog.records)

    def test_never_positive(self):
        for seed in range(30):
            graphs, labels = random_graph_batch(8, 3, 2, 3, seed)
            assert group_losses(Tensor(graphs), labels)[1].item() <= 0.0

    def test_gradient_flows_to_embeddings(self):
        rng = np.random.default_rng(1)
        h = Param(rng.standard_normal((4, 3, 2)))
        err = nn.gradient_check(
            lambda: group_losses(generate_graph(h), [0, 1, 0, 1])[1],
            [("h", h)],
            seed=0,
        )
        assert err < 1e-4


class TestOracleEquivalence:
    """Fast paths vs the O(n^2) brute-force definitions."""

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_intra_matches_pairwise_oracle(self, n_classes):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n, v, d = int(rng.integers(n_classes, 33)), int(rng.integers(2, 7)), 3
            graphs, labels = random_graph_batch(n, v, d, n_classes, seed)
            fast = group_losses(Tensor(graphs), labels)[0].item()
            oracle = group_intra_loss_oracle(graphs, labels)
            assert abs(fast - oracle) <= 1e-6 * max(1.0, abs(oracle))

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_inter_matches_pairwise_oracle(self, n_classes):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n, v, d = int(rng.integers(n_classes, 33)), int(rng.integers(2, 7)), 3
            graphs, labels = random_graph_batch(n, v, d, n_classes, seed)
            fast = group_losses(Tensor(graphs), labels)[1].item()
            oracle = group_inter_loss_oracle(graphs, labels)
            assert abs(fast - oracle) <= 1e-6 * max(1.0, abs(oracle))


class TestSparsityLoss:
    def test_all_ones(self):
        assert sparsity_loss(Tensor(np.ones((3, 3)))).item() == 1.0

    def test_all_zeros(self):
        assert sparsity_loss(Tensor(np.zeros((3, 3)))).item() == 0.0

    def test_hand_checked_identity_matrix(self):
        assert sparsity_loss(Tensor(np.eye(2))).item() == 0.5

    def test_gradient_flows(self):
        rng = np.random.default_rng(2)
        h = Param(rng.standard_normal((2, 3, 2)))
        err = nn.gradient_check(
            lambda: sparsity_loss(generate_graph(h)), [("h", h)], seed=0
        )
        assert err < 1e-4
