"""Learnable connectivity graphs and their group/sparsity regularizers.

The generated graph is A = h_A h_A^T with h_A the row-stochastic softmax of
the encoder embedding, so A is symmetric with entries in (0, 1] and
diagonal at least 1/d.

Each regularizer has a fast differentiable path plus an O(n^2) brute-force
oracle (numpy only) so the algebraic shortcuts can be audited.
"""
from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from . import nncore as nn
from .nncore import Tensor

__all__ = [
    "LossWeights",
    "generate_graph",
    "group_losses",
    "sparsity_loss",
    "group_intra_loss_oracle",
    "group_inter_loss_oracle",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class LossWeights:
    alpha: float = 1e-3  # group intra
    beta: float = 1e-3  # group inter
    gamma: float = 1e-4  # sparsity

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"loss.{name}: loss weight must be a finite non-negative "
                                 f"real, got {value!r}")


def generate_graph(h_e) -> Tensor:
    """A = h_A h_A^T with h_A = softmax(h_e) over the embedding axis.

    Accepts (v, d) or a batched (n, v, d) embedding.
    """
    h = nn.as_tensor(h_e)
    h_a = nn.softmax(h)
    return h_a @ h_a.swapaxes(-1, -2)


def group_losses(graphs, labels) -> tuple:
    """(intra, inter) group regularizers of a (n, v, v) batch of graphs.

    One pass over the classes present, in sorted order: intra sums each
    class's mean squared Frobenius deviation from its mean graph (always
    >= 0); inter is the negative sum of squared mean-graph distances over
    ordered class pairs. A batch with fewer than two classes has inter 0
    (logged once per call).
    """
    graphs = nn.as_tensor(graphs)
    if graphs.ndim != 3 or graphs.shape[0] == 0:
        raise ValueError(f"expected a non-empty (n, v, v) batch, got shape {graphs.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    means = []
    intra = nn.as_tensor(0.0)
    for c in sorted(set(int(c) for c in labels)):
        members = graphs[np.flatnonzero(labels == c)]
        mu = members.mean(axis=0)
        centered = members - mu
        intra = intra + (centered * centered).sum(axis=(1, 2)).mean()
        means.append(mu)
    if len(means) < 2:
        log.info("group inter loss skipped: batch contains a single class")
        return intra, nn.as_tensor(0.0)
    inter = nn.as_tensor(0.0)
    for a, b in itertools.permutations(means, 2):
        diff = a - b
        inter = inter + (diff * diff).sum()
    return intra, -inter


def sparsity_loss(graph) -> Tensor:
    """Mean of all adjacency entries; for a batch, the mean over all graphs."""
    return nn.as_tensor(graph).mean()


def group_intra_loss_oracle(graphs: np.ndarray, labels) -> float:
    """O(n^2) pairwise identity: sigma^2_c = sum_ij ||A_i - A_j||^2 / (2 |S_c|^2)."""
    graphs = np.asarray(graphs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    total = 0.0
    for c in sorted(set(int(x) for x in labels)):
        members = graphs[labels == c]
        k = len(members)
        acc = 0.0
        for i in range(k):
            for j in range(k):
                d = members[i] - members[j]
                acc += float((d * d).sum())
        total += acc / (2.0 * k * k)
    return total


def group_inter_loss_oracle(graphs: np.ndarray, labels) -> float:
    """Literal double sum over ordered class pairs of
    sigma^2_a + sigma^2_b - mean_{i in S_a, j in S_b} ||A_i - A_j||^2."""
    graphs = np.asarray(graphs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    classes = sorted(set(int(x) for x in labels))
    if len(classes) < 2:
        return 0.0
    members = {c: graphs[labels == c] for c in classes}
    sigma = {}
    for c in classes:
        mu = members[c].mean(axis=0)
        sigma[c] = float(((members[c] - mu) ** 2).sum(axis=(1, 2)).mean())
    total = 0.0
    for a, b in itertools.permutations(classes, 2):
        acc = 0.0
        for ga in members[a]:
            for gb in members[b]:
                d = ga - gb
                acc += float((d * d).sum())
        cross = acc / (len(members[a]) * len(members[b]))
        total += sigma[a] + sigma[b] - cross
    return total
