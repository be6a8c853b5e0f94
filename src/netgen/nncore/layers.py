"""Parameterized layers with exact gradients, and the `Module` base they share.

Layer set: dense, conv1d, batch norm, and the GRU weights that
`gru_direction` runs. Initialization is fully seeded: dense/conv weights
uniform in +-sqrt(6/(fan_in+fan_out)) with zero biases, GRU weights uniform
in +-sqrt(1/hidden) with zero biases.
"""
from __future__ import annotations

import numpy as np

from .checkpoint import check_shapes
from .tensor import Param, Tensor, as_tensor, conv1d

__all__ = ["Module", "Dense", "Conv1d", "BatchNorm1d", "GruCell"]


def _members(value, name: str):
    """Yield (dotted name, member) for every Module, Param and ndarray
    reachable from `value`, in attribute definition order.

    A Module's attributes are named by attribute name under the module's
    own name, list items by the list's name plus their index, dict items by
    their key. Checkpoint keys are these names, so this rule is the
    checkpoint naming format.
    """
    if isinstance(value, Module):
        yield name, value
        for key, child in vars(value).items():
            yield from _members(child, f"{name}.{key}" if name else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _members(item, f"{name}{i}")
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _members(item, f"{name}.{key}")
    elif isinstance(value, (Param, np.ndarray)):
        yield name, value


class Module:
    """Anything that owns parameters: `Param` attributes are its parameters,
    `ndarray` attributes its buffers (state saved but not trained)."""

    training = True

    def _named(self, kind) -> list:
        return [(n, m) for n, m in _members(self, "") if isinstance(m, kind)]

    def named_params(self) -> list:
        return self._named(Param)

    def named_buffers(self) -> list:
        return self._named(np.ndarray)

    def set_training(self, flag: bool) -> None:
        """Train or eval mode for this module and every module inside it."""
        for _, m in self._named(Module):
            m.training = flag

    def state(self) -> dict:
        out = {f"param.{n}": p.data.copy() for n, p in self.named_params()}
        out.update({f"buffer.{n}": np.array(b) for n, b in self.named_buffers()})
        return out

    def load_state(self, arrays: dict) -> None:
        """Copy `arrays` (as produced by `state`) into this module; raises
        CheckpointError unless names and shapes match exactly."""
        params, buffers = self.named_params(), self.named_buffers()
        expected = {f"param.{n}": p.data for n, p in params}
        expected.update({f"buffer.{n}": b for n, b in buffers})
        check_shapes(arrays, expected)
        for name, p in params:
            p.data = arrays[f"param.{name}"].astype(p.data.dtype)
        for name, b in buffers:
            b[...] = arrays[f"buffer.{name}"]


def _glorot(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class Dense(Module):
    """Affine map x @ w + b on the last axis."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        self.w = Param(_glorot(rng, (n_in, n_out), n_in, n_out))
        self.b = Param(np.zeros(n_out))

    def __call__(self, x) -> Tensor:
        return as_tensor(x) @ self.w + self.b


class Conv1d(Module):
    def __init__(self, c_in: int, c_out: int, kernel: int, stride: int, rng: np.random.Generator):
        self.stride = stride
        self.w = Param(_glorot(rng, (c_out, c_in, kernel), c_in * kernel, c_out * kernel))
        self.b = Param(np.zeros(c_out))

    def __call__(self, x) -> Tensor:
        return conv1d(x, self.w, self.b, stride=self.stride)


class BatchNorm1d(Module):
    """Batch norm over axis 0 of a (batch, features) tensor.

    Training mode normalizes with batch statistics and updates running
    stats (momentum 0.1, unbiased variance); eval mode uses the running
    stats. Training mode requires batch size >= 2.
    """

    MOMENTUM, EPS = 0.1, 1e-5

    def __init__(self, num_features: int):
        self.gamma = Param(np.ones(num_features))
        self.beta = Param(np.zeros(num_features))
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def __call__(self, x) -> Tensor:
        x = as_tensor(x)
        if self.training:
            batch = x.data.shape[0]
            if batch < 2:
                raise ValueError(
                    "batch norm is undefined for a training batch of size 1; "
                    "use a batch of at least 2 samples"
                )
            mean = x.mean(axis=0)
            centered = x - mean
            var = (centered * centered).mean(axis=0)
            inv = (var + self.EPS) ** -0.5
            out = centered * inv * self.gamma + self.beta
            m = self.MOMENTUM
            self.running_mean = (1 - m) * self.running_mean + m * mean.data
            self.running_var = (1 - m) * self.running_var + m * var.data * batch / (batch - 1)
            return out
        inv = 1.0 / np.sqrt(self.running_var + self.EPS)
        return (x - self.running_mean) * inv * self.gamma + self.beta


class GruCell(Module):
    """Weights of one GRU direction, hidden state width `hidden`; the
    recurrence itself is `gru_direction`."""

    def __init__(self, n_in: int, hidden: int, rng: np.random.Generator):
        bound = np.sqrt(1.0 / hidden)
        self.w_ih = Param(rng.uniform(-bound, bound, size=(n_in, 3 * hidden)))
        self.w_hh = Param(rng.uniform(-bound, bound, size=(hidden, 3 * hidden)))
        self.b_ih = Param(np.zeros(3 * hidden))
        self.b_hh = Param(np.zeros(3 * hidden))
