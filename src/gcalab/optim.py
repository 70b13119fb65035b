"""Adam optimizer over ParameterStore leaves."""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .errors import ContractError, NanGradientError
from .tensor import Parameter

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Standard Adam with bias correction and the usual fixed β1, β2 and ε.

    Only trainable parameters are touched, and every one of them must hold a
    gradient at every step: the lab builds only what the forward pass reads,
    so a grad still None means a parameter was built but not read. ``step``
    raises ``ContractError`` naming the first such parameter, and NaN or inf
    in any gradient raises ``NanGradientError`` naming the offending one; both
    fire before any parameter or moment moves. An explicit zero gradient
    decays moments but cannot move a parameter whose moments are zero.

    The moments live in two flat float64 buffers, one slot per parameter in
    order. A step gathers the gradients into a third buffer and updates all
    slots with whole-buffer ufuncs; the update is elementwise, so its bits are
    those of a per-parameter loop. Each parameter is then rebound to a new
    array, never written in place.
    """

    def __init__(self, params: list[Parameter], lr: float = 1e-3):
        self.params = [p for p in params if p.trainable]
        self.lr = lr
        self.step_count = 0
        self._offsets = [0, *accumulate(p.tensor.data.size for p in self.params)]
        self._m = np.zeros(self._offsets[-1])
        self._v = np.zeros(self._offsets[-1])

    def step(self) -> None:
        missing = next((p for p in self.params if p.tensor.grad is None), None)
        if missing is not None:
            raise ContractError(f"no gradient for trainable parameter {missing.name} at step {self.step_count + 1}")
        g = np.concatenate([p.tensor.grad.reshape(-1) for p in self.params] or [np.zeros(0)], dtype=np.float64)
        if not np.isfinite(g).all():
            bad = next(p for p in self.params if not np.isfinite(p.tensor.grad).all())
            raise NanGradientError(f"non-finite gradient in {bad.name} at step {self.step_count + 1}")
        self.step_count += 1
        t = self.step_count
        m, v = self._m, self._v
        # m = b1·m + (1 − b1)·g and v = b2·v + ((1 − b2)·g)·g, each product
        # rounded as the per-parameter expressions round it.
        scratch = g * (1.0 - BETA1)
        m *= BETA1
        m += scratch
        np.multiply(g, 1.0 - BETA2, out=scratch)
        scratch *= g
        v *= BETA2
        v += scratch
        # lr · (m / bias1) / (sqrt(v / bias2) + eps), into g's slots.
        update = np.divide(m, 1.0 - BETA1**t, out=g)
        update *= self.lr
        np.divide(v, 1.0 - BETA2**t, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += EPS
        update /= scratch
        for p, lo, hi in zip(self.params, self._offsets, self._offsets[1:]):
            data = p.tensor.data
            p.tensor.data = data - update[lo:hi].reshape(data.shape)

    def zero_grad(self) -> None:
        for p in self.params:
            p.tensor.grad = None
