"""Gated cross-attention blocks and the vertical placement configuration.

A block refines a query-domain sequence with cross-attention into another
thread, modulated by a learned elementwise gate. It takes each thread's
hidden states as a tensor next to its mask, and the kv thread's
``visibility`` for the query's length,
``GcaBlock(x_q, q_mask, x_kv, kv_mask, seen, probe=None)``, and returns

    out = layernorm(x_q + gate(x_q, x_kv) * cross_attention(x_q, x_kv))

The gate is a two-layer relu FFN over the position-aligned concatenation of
both threads, squashed by sigmoid or tanh. It reads the kv thread zero-padded
or cut at the end to the query's length (``align_lengths``), so it runs over
len_q rows only. Its final layer starts at zero, so an untrained gate is the
activation at zero: a tanh gate starts closed and the block is
``layernorm(x_q)``; a sigmoid gate starts half open and the block is
``layernorm(x_q + 0.5 * cross_attention(x_q, x_kv))``. Probes measure,
without touching the gradient graph, how the cross-attention output rotates
relative to its query.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .attention import MultiHeadAttention, Visibility, apply_mask
from .errors import ConfigError, ContractError, DimensionError
from .metrics import cosine_probe_update
from .tensor import ParameterStore, Tensor

GATE_ACTIVATIONS = ("sigmoid", "tanh")
KV_SOURCES = ("pairwise", "combined")
_PROBE_CHANNELS = ("xxprime", "xy")


@dataclass
class GcaConfig:
    """Where gated cross-attention is inserted and how its gate behaves."""

    gate_activation: str = "tanh"
    use_layernorm: bool = True
    heads: int = 4
    gate_hidden: int | None = None
    placements: tuple[int, ...] = ()
    kv_source: str = "combined"

    def __post_init__(self):
        if self.gate_activation not in GATE_ACTIVATIONS:
            raise ConfigError(f"gate_activation must be one of {GATE_ACTIVATIONS}, got {self.gate_activation!r}")
        if self.kv_source not in KV_SOURCES:
            raise ConfigError(f"kv_source must be one of {KV_SOURCES}, got {self.kv_source!r}")
        if self.heads < 1:
            raise ConfigError(f"heads must be >= 1, got {self.heads}")
        if self.gate_hidden is not None and self.gate_hidden < 1:
            raise ConfigError(f"gate_hidden must be >= 1, got {self.gate_hidden}")
        self.placements = tuple(self.placements)
        if list(self.placements) != sorted(set(self.placements)):
            raise ConfigError(f"placements must be sorted and unique, got {self.placements}")
        if any(p < 0 for p in self.placements):
            raise ConfigError(f"placements must be >= 0, got {self.placements}")


class GcaProbe:
    """Running averages of |cos(query, cross-attended)| and |cos(query, kv)|.

    Weighted by unmasked position count so batches of different shapes
    average correctly. Reads model activations as plain arrays only; nothing
    here participates in backpropagation.
    """

    def __init__(self):
        self._totals = {channel: 0.0 for channel in _PROBE_CHANNELS}
        self._weights = {channel: 0 for channel in _PROBE_CHANNELS}
        self.batch_count = 0

    def accumulate(self, channel: str, total: float, weight: int) -> None:
        if channel not in _PROBE_CHANNELS:
            raise ContractError(f"unknown probe channel {channel!r}")
        if weight <= 0:
            raise ContractError(f"probe weight must be positive, got {weight}")
        self._totals[channel] += total
        self._weights[channel] += weight

    def _mean(self, channel: str) -> float:
        weight = self._weights[channel]
        return self._totals[channel] / weight if weight else 0.0

    @property
    def cos_xxprime(self) -> float:
        return self._mean("xxprime")

    @property
    def cos_xy(self) -> float:
        return self._mean("xy")

    def observe(
        self,
        query: np.ndarray,
        crossed: np.ndarray,
        query_mask: np.ndarray,
        kv: np.ndarray | None = None,
        kv_mask: np.ndarray | None = None,
    ) -> None:
        """Record one batch; without ``kv`` only the query/output channel updates.
        ``xy`` pairs position i of ``query`` and ``kv`` where both masks keep it:
        under pairwise kv a stage's two blocks swap the two, so both domains
        record the same number."""
        cosine_probe_update(self, query, crossed, query_mask, channel="xxprime")
        if kv is not None and kv_mask is not None:
            shared = min(query.shape[1], kv.shape[1])
            both = query_mask[:, :shared] & kv_mask[:, :shared]
            if both.any():
                cosine_probe_update(self, query[:, :shared], kv[:, :shared], both, channel="xy")
        self.batch_count += 1


def align_lengths(x_q: Tensor, x_kv: Tensor) -> Tensor:
    """``x_kv`` zero-padded or cut at the end to ``x_q``'s length.

    The lab's one length rule: the gate reads the kv thread this way, and so
    do the invariant adapters. Equal lengths return ``x_kv`` itself.
    """
    if x_q.shape[0] != x_kv.shape[0]:
        raise DimensionError(f"batch sizes differ: {x_q.shape[0]} vs {x_kv.shape[0]}")
    length = x_q.shape[1]
    if x_kv.shape[1] < length:
        return T.pad_axis(x_kv, 1, length)
    if x_kv.shape[1] > length:
        return T.narrow(x_kv, 1, 0, length)
    return x_kv


class GcaBlock:
    """One gated cross-attention unit for a single query domain."""

    def __init__(self, store: ParameterStore, prefix: str, d: int, cfg: GcaConfig):
        self.cfg = cfg
        self.gate_width = cfg.gate_hidden if cfg.gate_hidden is not None else d
        self.ca = MultiHeadAttention(store, f"{prefix}.ca", d, cfg.heads)
        self.gate_w1 = store.normal(f"{prefix}.gate.w1", (2 * d, self.gate_width))
        self.gate_b1 = store.zeros(f"{prefix}.gate.b1", (self.gate_width,))
        # Zero final layer: the gate starts at act(0), 0 for tanh and 0.5 for sigmoid.
        self.gate_w2 = store.zeros(f"{prefix}.gate.w2", (self.gate_width, d))
        self.gate_b2 = store.zeros(f"{prefix}.gate.b2", (d,))
        if cfg.use_layernorm:
            self.ln_gain = store.ones(f"{prefix}.ln.gain", (d,))
            self.ln_bias = store.zeros(f"{prefix}.ln.bias", (d,))

    def gate_ffn(self, x_a: Tensor, x_b: Tensor) -> Tensor:
        """Elementwise gate from the length-aligned pair: act(W2 relu(W1 [x_a;x_b]))."""
        stacked = T.concat_lastdim(x_a, x_b)
        inner = T.relu(T.matmul(stacked, self.gate_w1.tensor) + self.gate_b1.tensor)
        raw = T.matmul(inner, self.gate_w2.tensor) + self.gate_b2.tensor
        return T.sigmoid(raw) if self.cfg.gate_activation == "sigmoid" else T.tanh(raw)

    def __call__(
        self,
        x_q: Tensor,
        q_mask: np.ndarray,
        x_kv: Tensor,
        kv_mask: np.ndarray,
        seen: Visibility,
        probe: GcaProbe | None = None,
    ) -> Tensor:
        """``seen`` is ``visibility(kv_mask, x_q.shape[1], causal=False)``."""
        crossed = self.ca(x_q, x_kv, seen)
        gate = self.gate_ffn(x_q, align_lengths(x_q, x_kv))
        merged = x_q + gate * crossed
        if self.cfg.use_layernorm:
            merged = T.layernorm(merged, self.ln_gain.tensor, self.ln_bias.tensor)
        out = apply_mask(merged, q_mask)
        if probe is not None:
            probe.observe(x_q.data, crossed.data, q_mask, x_kv.data, kv_mask)
        return out
