"""GCN classifier over (A, F), and the one model every pipeline builds.

The GCN update is the literal h <- ReLU(A h W + b) with no degree
normalization: generated graphs have entries bounded by 1, which keeps
activations tame at this scale. Pooling is concat (fixed node order) or
sum, followed by batch norm and a 2-layer MLP head.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import nncore as nn
from .encoders import EncoderConfig, build_encoder
from .graphgen import generate_graph
from .nncore import Tensor

__all__ = [
    "GcnConfig",
    "GcnPredictor",
    "Model",
    "PIPELINES",
    "build_model",
    "check_sizes",
    "pipeline_encoder",
]


@dataclass(frozen=True)
class GcnConfig:
    widths: tuple = (32, 32, 8)
    pooling: str = "concat"  # "concat" or "sum"
    mlp_hidden: int = 32
    n_classes: int = 2

    def __post_init__(self) -> None:
        if self.pooling not in ("concat", "sum"):
            raise ValueError(f"predictor.pooling must be 'concat' or 'sum', got {self.pooling!r}")
        if len(self.widths) < 1 or any(w < 1 for w in self.widths):
            raise ValueError(f"predictor.widths: layer widths must be positive, got {self.widths}")
        if self.mlp_hidden < 1:
            raise ValueError(f"predictor.mlp_hidden must be >= 1, got {self.mlp_hidden}")
        if self.n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {self.n_classes}")


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


# Each pipeline as (encoder kind or None, graph): the graph the GCN runs on is
# generated from the encoder, all-ones, the raw Pearson matrix, or None, where
# the encoder embeddings go straight into the MLP head.
_PIPELINES = {
    "fbnetgen-cnn": ("cnn", "generated"),
    "fbnetgen-gru": ("gru", "generated"),
    "gnn-uniform": (None, "uniform"),
    "gnn-pearson": (None, "pearson"),
    "seq-cnn": ("cnn", None),
    "seq-gru": ("gru", None),
}
PIPELINES = tuple(_PIPELINES)


class Model(_MlpHead):
    """One pipeline of the comparison table: encoder -> graph -> GCN -> head,
    with the parts its `_PIPELINES` row leaves out switched off."""

    def __init__(self, pipeline: str, encoder_cfg: EncoderConfig, gcn_cfg: GcnConfig, v: int,
                 rng: np.random.Generator):
        encoder = pipeline_encoder(pipeline, encoder_cfg)
        self.graph = _PIPELINES[pipeline][1]
        if encoder is not None:
            self.encoder = build_encoder(encoder, rng)
        if self.graph is None:
            self._build_head(v * encoder_cfg.dim, gcn_cfg, rng)
        else:
            self.gcn = GcnPredictor(gcn_cfg, v, in_features=v, rng=rng)

    def forward(self, x, features):
        """(logits, generated graphs or None)."""
        if self.graph is None:
            h_e = self.encoder(x)
            b, v, d = h_e.shape
            return self.classify(h_e.reshape((b, v * d))), None
        feats = nn.as_tensor(features)
        graphs = None
        if self.graph == "generated":
            adjacency = graphs = self.graphs(x)
        elif self.graph == "uniform":
            b, v, _ = feats.shape
            adjacency = np.broadcast_to(np.ones((v, v)), (b, v, v))
        else:
            adjacency = feats.data
        return self.gcn(adjacency, feats), graphs

    def graphs(self, x) -> Tensor:
        return generate_graph(self.encoder(x))


def build_model(pipeline: str, encoder_cfg: EncoderConfig, gcn_cfg: GcnConfig, v: int, seed: int):
    """Instantiate a pipeline by its comparison-table name."""
    return Model(pipeline, encoder_cfg, gcn_cfg, v, np.random.default_rng(seed))


def pipeline_encoder(pipeline: str, encoder_cfg: EncoderConfig):
    """The encoder a pipeline runs, or None for the fixed-graph pipelines:
    its kind comes from the pipeline's row, window and dim from `encoder_cfg`."""
    if pipeline not in _PIPELINES:
        raise ValueError(f"unknown pipeline {pipeline!r}; choose one of {PIPELINES}")
    kind = _PIPELINES[pipeline][0]
    return None if kind is None else replace(encoder_cfg, kind=kind)


def check_sizes(pipeline: str, encoder_cfg: EncoderConfig, gcn_cfg: GcnConfig, v: int,
                arrays: dict) -> None:
    """Raise CheckpointError naming the checkpoint meta key whose size
    disagrees with the saved array it shapes, so that `build_model` never
    allocates a model larger than its checkpoint."""
    encoder = pipeline_encoder(pipeline, encoder_cfg)
    graph = _PIPELINES[pipeline][1]
    head = "param." if graph is None else "param.gcn."
    sizes = [("meta.predictor.mlp_hidden", gcn_cfg.mlp_hidden, head + "mlp1.w", 1)]
    if encoder is not None:
        gru = encoder.kind == "gru"
        sizes += [
            ("meta.encoder.window", encoder.window,
             "param.encoder.gru0.fwd.w_hh" if gru else "param.encoder.conv1.w", 0 if gru else 2),
            ("meta.encoder.dim", encoder.dim,
             "param.encoder.out.w" if gru else "param.encoder.fc2.w", 1),
        ]
    if graph is None:
        sizes.append(("meta.shape.v", v * encoder.dim, "param.mlp1.w", 0))
    else:
        sizes.append(("meta.shape.v", v, "param.gcn.gcn0.w", 0))
        sizes += [("meta.predictor.widths", width, f"param.gcn.gcn{i}.w", 1)
                  for i, width in enumerate(gcn_cfg.widths)]
    for key, size, name, axis in sizes:
        shape = arrays[name].shape if name in arrays else None
        if shape is None or len(shape) <= axis or shape[axis] != size:
            raise nn.CheckpointError(f"{key} gives size {size} where array '{name}' has "
                                     f"shape {shape}")
