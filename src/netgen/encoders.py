"""Per-ROI time-series encoders: 3-layer 1D-CNN and 4-layer bi-GRU.

Both map a (batch, v, t) signal tensor to (batch, v, d) embeddings with one
shared parameter set across ROIs, so they are equivariant to ROI
permutation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nncore as nn

__all__ = ["EncoderConfig", "CnnEncoder", "GruEncoder", "build_encoder"]


@dataclass(frozen=True)
class EncoderConfig:
    kind: str = "gru"  # "cnn" or "gru"
    window: int = 16  # tau: CNN first kernel width / GRU segment length
    dim: int = 8  # d: embedding size per ROI

    def __post_init__(self) -> None:
        if self.kind not in ("cnn", "gru"):
            raise ValueError(f"encoder.kind must be 'cnn' or 'gru', got {self.kind!r}")
        if self.window < 1:
            raise ValueError(f"encoder.window must be positive, got {self.window}")
        if self.dim < 1:
            raise ValueError(f"encoder.dim: embedding dim must be positive, got {self.dim}")

    def min_length(self) -> int:
        """Shortest series the encoder accepts: one segment for the GRU, the
        receptive field of the conv stack for the CNN."""
        if self.kind == "gru":
            return self.window
        needed = 1
        for _, kernel, stride in reversed(CnnEncoder.KERNELS):
            k = self.window if kernel is None else kernel
            needed = (needed - 1) * stride + k
        return needed


class CnnEncoder(nn.Module):
    """Conv(1,32,tau,s2) -> Conv(32,32,8) -> Conv(32,16,8) -> global max pool
    -> Dense 32 -> ReLU -> Dense d, applied to every ROI row."""

    KERNELS = ((32, None, 2), (32, 8, 1), (16, 8, 1))  # (out_channels, kernel, stride)

    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.conv1 = nn.Conv1d(1, 32, cfg.window, 2, rng)
        self.conv2 = nn.Conv1d(32, 32, 8, 1, rng)
        self.conv3 = nn.Conv1d(32, 16, 8, 1, rng)
        self.fc1 = nn.Dense(16, 32, rng)
        self.fc2 = nn.Dense(32, cfg.dim, rng)

    def min_length(self) -> int:
        """Smallest t admitted by the receptive field of the conv stack."""
        return self.cfg.min_length()

    def forward(self, x) -> nn.Tensor:
        x = nn.as_tensor(x)
        b, v, t = x.shape
        if t < self.min_length():
            raise ValueError(
                f"cnn encoder with window {self.cfg.window} needs t >= {self.min_length()}, got {t}"
            )
        h = x.reshape((b * v, 1, t))
        h = self.conv3(self.conv2(self.conv1(h)))
        h = nn.max_last(h)
        h = self.fc2(nn.relu(self.fc1(h)))
        return h.reshape((b, v, self.cfg.dim))

    __call__ = forward


class GruEncoder(nn.Module):
    """4-layer bi-directional GRU over length-tau segments of each ROI row.

    The series is cut into z = floor(t / tau) consecutive segments (any
    remainder is dropped); hidden width per direction equals tau; final
    forward and backward top-layer states concatenate to a 2*tau readout,
    then a dense map yields the d-dimensional embedding.
    """

    LAYERS = 4

    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator):
        self.cfg = cfg
        hid = cfg.window
        self.gru = []
        for layer in range(self.LAYERS):
            n_in = cfg.window if layer == 0 else 2 * hid
            self.gru.append({"fwd": nn.GruCell(n_in, hid, rng), "bwd": nn.GruCell(n_in, hid, rng)})
        self.out = nn.Dense(2 * hid, cfg.dim, rng)

    def segment_count(self, t: int) -> int:
        return t // self.cfg.window

    def forward(self, x) -> nn.Tensor:
        x = nn.as_tensor(x)
        b, v, t = x.shape
        tau = self.cfg.window
        z = self.segment_count(t)
        if z < 1:
            raise ValueError(f"gru encoder window {tau} exceeds series length {t}")
        h = x[:, :, : z * tau].reshape((b * v, z, tau))
        fwd_out = bwd_out = None
        for cells in self.gru:
            fwd, bwd = cells["fwd"], cells["bwd"]
            fwd_out = nn.gru_direction(h, fwd.w_ih, fwd.w_hh, fwd.b_ih, fwd.b_hh)
            bwd_out = nn.gru_direction(h, bwd.w_ih, bwd.w_hh, bwd.b_ih, bwd.b_hh, reverse=True)
            h = nn.concat([fwd_out, bwd_out], axis=2)
        h_r = nn.concat([fwd_out[:, z - 1, :], bwd_out[:, 0, :]], axis=1)
        return self.out(h_r).reshape((b, v, self.cfg.dim))

    __call__ = forward


def build_encoder(cfg: EncoderConfig, rng: np.random.Generator):
    return CnnEncoder(cfg, rng) if cfg.kind == "cnn" else GruEncoder(cfg, rng)
