"""Adam optimizer over ParameterStore leaves."""

from __future__ import annotations

from itertools import accumulate

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

    The moments live in two flat float64 buffers, one slot per parameter in
    order. A step gathers the live gradients into a third buffer and updates
    each contiguous run of live slots with whole-buffer ufuncs; the update is
    elementwise, so its bits are those of a per-parameter loop. Each parameter
    is then rebound to a new array, never written in place.
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
        self._offsets = [0, *accumulate(p.tensor.data.size for p in self.params)]
        self._m = np.zeros(self._offsets[-1])
        self._v = np.zeros(self._offsets[-1])

    def _live_runs(self) -> list[tuple[int, int]]:
        """Index ranges [first, last) of consecutive parameters with a grad."""
        runs: list[tuple[int, int]] = []
        for i, p in enumerate(self.params):
            if p.tensor.grad is None:
                continue
            if runs and runs[-1][1] == i:
                runs[-1] = (runs[-1][0], i + 1)
            else:
                runs.append((i, i + 1))
        return runs

    def step(self) -> None:
        runs = self._live_runs()
        live = [p for first, last in runs for p in self.params[first:last]]
        grads = np.concatenate([p.tensor.grad.reshape(-1) for p in live] or [np.zeros(0)], dtype=np.float64)
        if not np.isfinite(grads).all():
            bad = next(p for p in live if not np.isfinite(p.tensor.grad).all())
            raise NanGradientError(f"non-finite gradient in {bad.name} at step {self.step_count + 1}")
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        offsets = self._offsets
        at = 0
        for first, last in runs:
            lo, hi = offsets[first], offsets[last]
            g, m, v = grads[at : at + hi - lo], self._m[lo:hi], self._v[lo:hi]
            at += hi - lo
            # m = b1·m + (1 − b1)·g and v = b2·v + ((1 − b2)·g)·g, each
            # product rounded as the per-parameter expressions round it.
            scratch = g * (1.0 - self.beta1)
            m *= self.beta1
            m += scratch
            np.multiply(g, 1.0 - self.beta2, out=scratch)
            scratch *= g
            v *= self.beta2
            v += scratch
            # lr · (m / bias1) / (sqrt(v / bias2) + eps), into g's slots.
            update = np.divide(m, bias1, out=g)
            update *= self.lr
            np.divide(v, bias2, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += self.eps
            update /= scratch
            for i in range(first, last):
                data = self.params[i].tensor.data
                step = update[offsets[i] - lo : offsets[i + 1] - lo]
                self.params[i].tensor.data = data - step.reshape(data.shape)

    def zero_grad(self) -> None:
        for p in self.params:
            p.tensor.grad = None
