"""GCN classifier over (A, F) plus the non-learnable-graph baselines.

The GCN update is the literal h <- ReLU(A h W + b) with no degree
normalization: generated graphs have entries bounded by 1, which keeps
activations tame at this scale. Pooling is concat (fixed node order) or
sum, followed by batch norm and a 2-layer MLP head.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nncore as nn
from .encoders import EncoderConfig, build_encoder
from .graphgen import generate_graph
from .nncore import Tensor

__all__ = [
    "GcnConfig",
    "GcnPredictor",
    "build_uniform_graph",
    "LearnableGraphModel",
    "FixedGraphModel",
    "SequenceModel",
    "PIPELINES",
    "build_model",
    "pipeline_encoder",
]


@dataclass
class GcnConfig:
    widths: tuple = (32, 32, 8)
    pooling: str = "concat"  # "concat" or "sum"
    mlp_hidden: int = 32
    n_classes: int = 2

    def validate(self) -> None:
        if self.pooling not in ("concat", "sum"):
            raise ValueError(f"pooling must be 'concat' or 'sum', got {self.pooling!r}")
        if len(self.widths) < 1 or any(w < 1 for w in self.widths):
            raise ValueError(f"layer widths must be positive, got {self.widths}")
        if self.mlp_hidden < 1 or self.n_classes < 2:
            raise ValueError("mlp_hidden must be >= 1 and n_classes >= 2")


def build_uniform_graph(v: int) -> np.ndarray:
    """All-ones adjacency, the node-feature-only control graph."""
    return np.ones((v, v))


class _MlpHead(nn.Module):
    """Batch norm and a 2-layer MLP over a flat (batch, width) input."""

    def _build_head(self, width: int, cfg: GcnConfig, rng: np.random.Generator) -> None:
        self.bn = nn.BatchNorm1d(width)
        self.mlp1 = nn.Dense(width, cfg.mlp_hidden, rng)
        self.mlp2 = nn.Dense(cfg.mlp_hidden, cfg.n_classes, rng)

    def classify(self, flat: Tensor) -> Tensor:
        return self.mlp2(nn.relu(self.mlp1(self.bn(flat))))


class GcnPredictor(_MlpHead):
    """k-layer GCN, pooling, batch norm, MLP head."""

    def __init__(self, cfg: GcnConfig, v: int, in_features: int, rng: np.random.Generator):
        cfg.validate()
        self.cfg = cfg
        dims = (in_features,) + cfg.widths
        self.gcn = [nn.Dense(dims[i], dims[i + 1], rng) for i in range(len(cfg.widths))]
        pooled = v * cfg.widths[-1] if cfg.pooling == "concat" else cfg.widths[-1]
        self._build_head(pooled, cfg, rng)

    def node_embeddings(self, adjacency, features) -> Tensor:
        a = nn.as_tensor(adjacency)
        h = nn.as_tensor(features)
        for layer in self.gcn:
            h = nn.relu(layer(a @ h))
        return h

    def pool_and_classify(self, node_emb: Tensor) -> Tensor:
        b, v, width = node_emb.shape
        if self.cfg.pooling == "concat":
            pooled = node_emb.reshape((b, v * width))
        else:
            pooled = node_emb.sum(axis=1)
        return self.classify(pooled)

    def forward(self, adjacency, features) -> Tensor:
        return self.pool_and_classify(self.node_embeddings(adjacency, features))

    __call__ = forward


class LearnableGraphModel(nn.Module):
    """Encoder -> graph generator -> GCN -> head; the full pipeline."""

    def __init__(self, encoder_cfg: EncoderConfig, gcn_cfg: GcnConfig, v: int, rng):
        self.encoder = build_encoder(encoder_cfg, rng)
        self.gcn = GcnPredictor(gcn_cfg, v, in_features=v, rng=rng)

    def forward(self, x, features):
        h_e = self.encoder(x)
        graphs = generate_graph(h_e)
        logits = self.gcn(graphs, features)
        return logits, graphs

    def graphs(self, x) -> Tensor:
        return generate_graph(self.encoder(x))


class FixedGraphModel(nn.Module):
    """GCN over a fixed adjacency: all-ones or the raw Pearson matrix."""

    def __init__(self, graph_kind: str, gcn_cfg: GcnConfig, v: int, rng):
        if graph_kind not in ("uniform", "pearson"):
            raise ValueError(f"unknown fixed graph kind {graph_kind!r}")
        self.graph_kind = graph_kind
        self.v = v
        self.gcn = GcnPredictor(gcn_cfg, v, in_features=v, rng=rng)

    def forward(self, x, features):
        feats = nn.as_tensor(features)
        if self.graph_kind == "uniform":
            b = feats.shape[0]
            adjacency = Tensor(np.broadcast_to(build_uniform_graph(self.v), (b, self.v, self.v)))
        else:
            adjacency = Tensor(feats.data)
        return self.gcn(adjacency, feats), None


class SequenceModel(_MlpHead):
    """Encoder embeddings concatenated straight into the MLP head; no graph."""

    def __init__(self, encoder_cfg: EncoderConfig, gcn_cfg: GcnConfig, v: int, rng):
        self.encoder = build_encoder(encoder_cfg, rng)
        self._build_head(v * encoder_cfg.dim, gcn_cfg, rng)

    def forward(self, x, features=None):
        h_e = self.encoder(x)
        b, v, d = h_e.shape
        return self.classify(h_e.reshape((b, v * d))), None


PIPELINES = (
    "fbnetgen-cnn",
    "fbnetgen-gru",
    "gnn-uniform",
    "gnn-pearson",
    "seq-cnn",
    "seq-gru",
)


def build_model(pipeline: str, encoder_cfg: EncoderConfig, gcn_cfg: GcnConfig, v: int, seed: int):
    """Instantiate a pipeline by its comparison-table name."""
    if pipeline not in PIPELINES:
        raise ValueError(f"unknown pipeline {pipeline!r}; choose one of {PIPELINES}")
    rng = np.random.default_rng(seed)
    cfg = pipeline_encoder(pipeline, encoder_cfg)
    if cfg is None:
        return FixedGraphModel(pipeline.split("-", 1)[1], gcn_cfg, v, rng)
    cls = LearnableGraphModel if pipeline.startswith("fbnetgen-") else SequenceModel
    return cls(cfg, gcn_cfg, v, rng)


def pipeline_encoder(pipeline: str, encoder_cfg: EncoderConfig):
    """The encoder a pipeline runs, or None for the fixed-graph pipelines:
    its kind comes from the pipeline name, window and dim from `encoder_cfg`."""
    family, kind = pipeline.split("-", 1)
    if family == "gnn":
        return None
    return EncoderConfig(kind=kind, window=encoder_cfg.window, dim=encoder_cfg.dim)
