"""Adam with coupled L2 weight decay."""
from __future__ import annotations

import numpy as np

__all__ = ["Adam"]


class Adam:
    """Classic Adam with bias correction.

    Weight decay is coupled L2: the decay term is added to the gradient
    before the moment updates. With zero gradients and zero decay the
    parameters are a fixed point.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, named_params, lr: float = 1e-4, weight_decay: float = 1e-4):
        self.named_params = list(named_params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for _, p in self.named_params]
        self.s = [np.zeros_like(p.data) for _, p in self.named_params]

    def zero_grad(self) -> None:
        for _, p in self.named_params:
            p.grad = None

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.BETA1**t
        bc2 = 1.0 - self.BETA2**t
        for i, (name, p) in enumerate(self.named_params):
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            if not np.all(np.isfinite(g)):
                raise ValueError(f"non-finite gradient for parameter '{name}'")
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            self.m[i] = self.BETA1 * self.m[i] + (1.0 - self.BETA1) * g
            self.s[i] = self.BETA2 * self.s[i] + (1.0 - self.BETA2) * (g * g)
            m_hat = self.m[i] / bc1
            s_hat = self.s[i] / bc2
            p.data -= self.lr * m_hat / (np.sqrt(s_hat) + self.EPS)
