"""Adam optimizer over ParameterStore leaves."""

from __future__ import annotations

import numpy as np

from .errors import NanGradientError
from .tensor import Parameter


class Adam:
    """Standard Adam with bias correction.

    Only trainable parameters are touched. A parameter whose grad is still
    None is skipped entirely (its moments do not decay), while an explicit
    zero gradient decays moments but cannot move a parameter whose moments
    are zero. NaN or inf in any gradient aborts the step with the offending
    name, before any parameter or moment moves.
    """

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = [p for p in params if p.trainable]
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self._m = {p.name: np.zeros_like(p.tensor.data) for p in self.params}
        self._v = {p.name: np.zeros_like(p.tensor.data) for p in self.params}

    def step(self) -> None:
        live = [p for p in self.params if p.tensor.grad is not None]
        for p in live:
            if not np.isfinite(p.tensor.grad).all():
                raise NanGradientError(f"non-finite gradient in {p.name} at step {self.step_count + 1}")
        self.step_count += 1
        t = self.step_count
        for p in live:
            g = p.tensor.grad
            m = self._m[p.name] = self.beta1 * self._m[p.name] + (1.0 - self.beta1) * g
            v = self._v[p.name] = self.beta2 * self._v[p.name] + (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1**t)
            v_hat = v / (1.0 - self.beta2**t)
            p.tensor.data = p.tensor.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.tensor.grad = None
