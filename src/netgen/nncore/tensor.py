"""Minimal reverse-mode autodiff over numpy arrays.

Implements exactly the operation set the encoders, graph generator, GCN
predictor and losses need, nothing more. The default dtype is float64, so
gradient checks and the graph-validity guarantees run in double precision;
the training loop switches to float32 through `default_dtype` and casts
its parameters back up when done.

A tensor records its parents and backward closure only if it needs a
gradient (`requires_grad`). A `Param` does, and so does a tensor built
directly with `Tensor(data)` unless it passes `requires_grad=False`. An
array or number operand is a constant (`as_tensor`), so the library hands
models and ops its data as plain arrays. An op result needs one only if some
parent does and recording is on; inside `no_grad()`, where validation,
`evaluate` and `collect_graphs` run, it is off and no tape is built.
"""
from __future__ import annotations

from contextlib import contextmanager

import numpy as np

__all__ = [
    "Tensor",
    "Param",
    "as_tensor",
    "default_dtype",
    "no_grad",
    "add",
    "sub",
    "mul",
    "power",
    "matmul",
    "take",
    "concat",
    "reshape",
    "swapaxes",
    "tsum",
    "tmean",
    "relu",
    "softmax",
    "log_softmax",
    "softmax_rows",
    "max_last",
    "conv1d",
    "gru_direction",
]


_DEFAULT_DTYPE = np.dtype(np.float64)
_RECORDING = True


@contextmanager
def default_dtype(dtype):
    """Temporarily change the dtype new tensors are created with."""
    global _DEFAULT_DTYPE
    previous = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = np.dtype(dtype)
    try:
        yield
    finally:
        _DEFAULT_DTYPE = previous


@contextmanager
def no_grad():
    """Record no op inside: results keep no parents, closure or cache."""
    global _RECORDING
    previous, _RECORDING = _RECORDING, False
    try:
        yield
    finally:
        _RECORDING = previous


def _records(*parents) -> bool:
    """Whether an op over `parents` records: recording is on and some
    parent requires a gradient."""
    return _RECORDING and any(p.requires_grad for p in parents)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, inverting numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """One node of the computation graph: a value plus, if it requires a
    gradient, its parents and backward closure. An op result requires one
    exactly when it records (`_records`); a leaf as it is built."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bw")

    def __init__(self, data, parents=(), bw=None, requires_grad=True):
        self.data = np.asarray(data, dtype=_DEFAULT_DTYPE)
        self.grad = None
        if parents:
            requires_grad = _records(*parents)
            if not requires_grad:
                parents, bw = (), None
        self.requires_grad = requires_grad
        self._parents = parents
        self._bw = bw

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return self.data.item()

    def _topo(self):
        order, visited, stack = [], set(), [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        return order

    def backward(self, seed=None) -> None:
        """Accumulate gradients of a scalar (or seeded) output into every
        tensor on its tape that requires one."""
        if seed is None:
            if self.data.size != 1:
                raise ValueError("backward() without a seed needs a scalar output")
            seed = np.ones_like(self.data)
        else:
            seed = np.asarray(seed, dtype=self.data.dtype)
            if seed.shape != self.data.shape:
                raise ValueError(
                    f"seed shape {seed.shape} does not match output shape {self.data.shape}"
                )
        order = self._topo()
        self.grad = seed
        for node in reversed(order):
            if node._bw is None or node.grad is None:
                continue
            for parent, g in zip(node._parents, node._bw(node.grad)):
                if g is None or not parent.requires_grad:
                    continue
                parent.grad = g if parent.grad is None else parent.grad + g

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return take(self, idx)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape):
        return reshape(self, shape)

    def swapaxes(self, a, b):
        return swapaxes(self, a, b)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


class Param(Tensor):
    """A trainable leaf tensor."""

    __slots__ = ()


def as_tensor(x) -> Tensor:
    """`x` itself if a tensor, else a constant leaf that needs no gradient."""
    return x if isinstance(x, Tensor) else Tensor(x, requires_grad=False)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def bw(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return Tensor(out, (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data

    def bw(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return Tensor(out, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def bw(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return Tensor(out, (a, b), bw)


def power(x, exponent: float) -> Tensor:
    x = as_tensor(x)
    e = float(exponent)
    out = x.data**e

    def bw(g):
        return (g * e * x.data ** (e - 1.0),)

    return Tensor(out, (x,), bw)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must be at least 2-D")
    out = a.data @ b.data

    def bw(g):
        ga = _unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape) if b.requires_grad else None
        return ga, gb

    return Tensor(out, (a, b), bw)


def _is_advanced_index(idx) -> bool:
    items = idx if isinstance(idx, tuple) else (idx,)
    return any(isinstance(i, (np.ndarray, list)) for i in items)


def take(x, idx) -> Tensor:
    x = as_tensor(x)
    out = x.data[idx]
    if isinstance(out, np.ndarray) and out.base is not None:
        out = out.copy()
    advanced = _is_advanced_index(idx)

    def bw(g):
        gx = np.zeros_like(x.data)
        if advanced:
            np.add.at(gx, idx, g)
        else:
            gx[idx] += g
        return (gx,)

    return Tensor(out, (x,), bw)


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor(out, tuple(tensors), bw)


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    out = x.data.reshape(shape)

    def bw(g):
        return (g.reshape(x.data.shape),)

    return Tensor(out, (x,), bw)


def swapaxes(x, a: int, b: int) -> Tensor:
    x = as_tensor(x)
    out = x.data.swapaxes(a, b)

    def bw(g):
        return (g.swapaxes(a, b),)

    return Tensor(out, (x,), bw)


def _norm_axis(axis, ndim):
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def tsum(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    axis = _norm_axis(axis, x.ndim)
    out = x.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is None:
            return (np.broadcast_to(g, x.data.shape),)
        g2 = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g2, x.data.shape),)

    return Tensor(out, (x,), bw)


def tmean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    naxis = _norm_axis(axis, x.ndim)
    if naxis is None:
        count = x.data.size
    else:
        count = int(np.prod([x.data.shape[a] for a in naxis]))
    return mul(tsum(x, axis=axis, keepdims=keepdims), 1.0 / count)


def relu(x) -> Tensor:
    x = as_tensor(x)
    mask = x.data > 0
    out = np.where(mask, x.data, 0.0)

    def bw(g):
        return (g * mask,)

    return Tensor(out, (x,), bw)


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis of a plain array."""
    m = np.asarray(m)
    if m.dtype.kind != "f":
        m = m.astype(np.float64)
    shifted = m - m.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax(x) -> Tensor:
    """Softmax along the last axis, max-subtraction stabilized."""
    x = as_tensor(x)
    out = softmax_rows(x.data)

    def bw(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - inner),)

    return Tensor(out, (x,), bw)


def log_softmax(x) -> Tensor:
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse
    soft = np.exp(out)

    def bw(g):
        return (g - soft * g.sum(axis=-1, keepdims=True),)

    return Tensor(out, (x,), bw)


def max_last(x) -> Tensor:
    """Global max over the last axis; gradient routes to the first argmax."""
    x = as_tensor(x)
    idx = np.argmax(x.data, axis=-1)
    out = np.take_along_axis(x.data, idx[..., None], axis=-1)[..., 0]

    def bw(g):
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, idx[..., None], g[..., None], axis=-1)
        return (gx,)

    return Tensor(out, (x,), bw)


def conv1d(x, w, b, stride: int = 1) -> Tensor:
    """1-D convolution (valid padding).

    x: (N, C_in, L), w: (C_out, C_in, K), b: (C_out,).
    Output (N, C_out, L_out) with L_out = (L - K) // stride + 1.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    n, c_in, length = x.data.shape
    c_out, c_in_w, k = w.data.shape
    if c_in_w != c_in:
        raise ValueError(f"conv1d channel mismatch: input {c_in}, weight {c_in_w}")
    l_out = (length - k) // stride + 1
    if l_out < 1:
        raise ValueError(f"conv1d input length {length} shorter than kernel {k}")
    s0, s1, s2 = x.data.strides
    windows = np.lib.stride_tricks.as_strided(
        x.data, shape=(n, c_in, l_out, k), strides=(s0, s1, s2 * stride, s2)
    )
    cols = np.ascontiguousarray(windows.transpose(0, 2, 1, 3)).reshape(n, l_out, c_in * k)
    w_flat = w.data.reshape(c_out, c_in * k)
    out = (cols @ w_flat.T + b.data).transpose(0, 2, 1)

    def bw(g):
        gt = np.ascontiguousarray(g.transpose(0, 2, 1))  # (N, L_out, C_out)
        gb = gt.sum(axis=(0, 1))
        gw = (gt.reshape(-1, c_out).T @ cols.reshape(-1, c_in * k)).reshape(w.data.shape)
        if not x.requires_grad:
            return None, gw, gb
        gcols = (gt @ w_flat).reshape(n, l_out, c_in, k).transpose(0, 2, 1, 3)
        gx = np.zeros_like(x.data)
        for kk in range(k):
            gx[:, :, kk : kk + stride * l_out : stride] += gcols[:, :, :, kk]
        return gx, gw, gb

    return Tensor(out, (x, w, b), bw)


def gru_direction(x_seq, w_ih, w_hh, b_ih, b_hh, reverse: bool = False) -> Tensor:
    """One direction of a GRU layer over a whole (B, z, in) sequence.

    Returns the per-step hidden states (B, z, H), stored at their original
    sequence positions; with reverse=True the recurrence consumes the steps
    from the end, so the final state sits at position 0. The input-to-hidden
    projection is batched over steps and the backward pass is a hand-rolled
    BPTT, which keeps the tape small. The per-step cache it reads is built
    only when the result records.
    """
    x = as_tensor(x_seq)
    w_ih, w_hh, b_ih, b_hh = map(as_tensor, (w_ih, w_hh, b_ih, b_hh))
    bsz, z, n_in = x.data.shape
    hid = w_hh.data.shape[0]
    gx_all = (x.data.reshape(bsz * z, n_in) @ w_ih.data + b_ih.data).reshape(bsz, z, 3 * hid)
    order = range(z - 1, -1, -1) if reverse else range(z)
    h = np.zeros((bsz, hid), dtype=gx_all.dtype)
    out = np.empty((bsz, z, hid), dtype=gx_all.dtype)
    record = _records(x, w_ih, w_hh, b_ih, b_hh)
    cache = {}
    for s in order:
        gh = h @ w_hh.data + b_hh.data
        rz = 1.0 / (1.0 + np.exp(-(gx_all[:, s, : 2 * hid] + gh[:, : 2 * hid])))
        r, zg = rz[:, :hid], rz[:, hid:]
        gh_n = gh[:, 2 * hid :]
        n = np.tanh(gx_all[:, s, 2 * hid :] + r * gh_n)
        h_new = (1.0 - zg) * n + zg * h
        if record:
            cache[s] = (h, r, zg, n, gh_n)
        h = h_new
        out[:, s] = h_new

    def bw(g):
        dgx_all = np.empty_like(gx_all)
        dw_hh = np.zeros_like(w_hh.data)
        db_hh = np.zeros_like(b_hh.data)
        carry = np.zeros((bsz, hid), dtype=gx_all.dtype)
        for s in reversed(list(order)):
            gs = g[:, s] + carry
            h_prev, r, zg, n, gh_n = cache[s]
            dzg = gs * (h_prev - n) * zg * (1.0 - zg)
            da_n = gs * (1.0 - zg) * (1.0 - n * n)
            dr = da_n * gh_n * r * (1.0 - r)
            dgh = np.concatenate([dr, dzg, da_n * r], axis=1)
            dgx_all[:, s, :hid] = dr
            dgx_all[:, s, hid : 2 * hid] = dzg
            dgx_all[:, s, 2 * hid :] = da_n
            dw_hh += h_prev.T @ dgh
            db_hh += dgh.sum(axis=0)
            carry = dgh @ w_hh.data.T + gs * zg
        flat = dgx_all.reshape(bsz * z, 3 * hid)
        dx = (flat @ w_ih.data.T).reshape(bsz, z, n_in) if x.requires_grad else None
        dw_ih = x.data.reshape(bsz * z, n_in).T @ flat
        return dx, dw_ih, dw_hh, flat.sum(axis=0), db_hh

    return Tensor(out, (x, w_ih, w_hh, b_ih, b_hh), bw)

