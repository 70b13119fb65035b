"""Sequence batches, multi-head attention, and causal encoder blocks.

Sequences are left-packed: real items occupy positions 0..len-1 and padding
(id 0, mask false) fills the tail. A ``SequenceBatch`` is model input only;
hidden states move between blocks as plain ``[batch, length, d]`` tensors
next to their ``[batch, length]`` masks:

    add_position_embedding(x, mask, table) -> Tensor
    EncoderBlock(x, mask, train_rng=None) -> Tensor
    Encoder(x, mask, train_rng=None) -> Tensor

Every block multiplies its output by the mask on exit, so padded positions
carry exact zero vectors between stages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError, DimensionError
from .tensor import ParameterStore, Tensor

LN_EPS = 1e-8


@dataclass
class SequenceBatch:
    """A padded batch of one thread's item ids: model input, validated when built."""

    ids: np.ndarray
    mask: np.ndarray
    domain: str

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.ids.ndim != 2 or self.ids.shape != self.mask.shape:
            raise DimensionError(
                f"ids and mask must be matching 2-d arrays, got {self.ids.shape} and {self.mask.shape}"
            )
        if self.domain not in ("a", "b", "combined"):
            raise ContractError(f"unknown domain tag {self.domain!r}")
        if not ((self.ids == 0) == ~self.mask).all():
            raise ContractError("padding invariant violated: ids must be 0 exactly where mask is false")

    @property
    def batch_size(self) -> int:
        return self.ids.shape[0]


def apply_mask(x: Tensor, mask: np.ndarray) -> Tensor:
    """Zero out padded positions of a [batch, length, d] tensor."""
    return T.mul(x, Tensor(mask[:, :, None].astype(np.float64)))


def add_position_embedding(x: Tensor, mask: np.ndarray, table: Tensor) -> Tensor:
    """Add learned absolute position rows to ``x`` and re-mask."""
    length = x.shape[1]
    if length > table.shape[0]:
        raise DimensionError(f"sequence length {length} exceeds position table {table.shape[0]}")
    rows = T.narrow(table, 0, 0, length)
    positioned = x + T.reshape(rows, (1, length, table.shape[1]))
    return apply_mask(positioned, mask)


class MultiHeadAttention:
    """Scaled dot-product attention with per-head projections (no biases).

    Queries and keys/values may come from different threads and lengths. Rows
    whose visible key set is empty (an entirely padded kv sequence) produce a
    zero output vector instead of a degenerate softmax.
    """

    def __init__(self, store: ParameterStore, prefix: str, d: int, heads: int):
        self.d = d
        self.heads = heads
        self.head_dim = d // heads
        self.wq = store.normal(f"{prefix}.wq", (d, d))
        self.wk = store.normal(f"{prefix}.wk", (d, d))
        self.wv = store.normal(f"{prefix}.wv", (d, d))
        self.wo = store.normal(f"{prefix}.wo", (d, d))

    def _split(self, x: Tensor, batch: int, length: int) -> Tensor:
        return T.transpose(T.reshape(x, (batch, length, self.heads, self.head_dim)), (0, 2, 1, 3))

    def __call__(
        self,
        query: Tensor,
        keyvalue: Tensor,
        kv_mask: np.ndarray,
        causal: bool,
        dropout_p: float = 0.0,
        train_rng: np.random.Generator | None = None,
    ) -> Tensor:
        batch, len_q, d = query.shape
        len_k = keyvalue.shape[1]
        if d != self.d or keyvalue.shape[2] != self.d:
            raise DimensionError(f"expected feature dim {self.d}, got {query.shape} x {keyvalue.shape}")
        if causal and len_q != len_k:
            raise ContractError("causal attention requires matching query/key lengths")

        q = self._split(T.matmul(query, self.wq.tensor), batch, len_q)
        k = self._split(T.matmul(keyvalue, self.wk.tensor), batch, len_k)
        v = self._split(T.matmul(keyvalue, self.wv.tensor), batch, len_k)

        scores = T.matmul(q, T.transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(self.head_dim))

        visible = np.broadcast_to(kv_mask[:, None, None, :], (batch, 1, len_q, len_k)).copy()
        if causal:
            visible &= np.tril(np.ones((len_q, len_k), dtype=bool))[None, None]
        row_ok = visible.any(axis=-1)
        if not row_ok.all():
            # Patch empty rows so softmax is defined, then zero their output.
            visible[..., 0] |= ~row_ok
        weights = T.softmax_lastdim(scores, visible)
        weights = T.dropout(weights, dropout_p, train_rng)

        context = T.matmul(weights, v)
        merged = T.reshape(T.transpose(context, (0, 2, 1, 3)), (batch, len_q, d))
        out = T.matmul(merged, self.wo.tensor)
        if not row_ok.all():
            out = T.mul(out, Tensor(row_ok[:, 0, :, None].astype(np.float64)))
        return out


class EncoderBlock:
    """Pre-norm causal self-attention block with a relu FFN (inner width d)."""

    def __init__(self, store: ParameterStore, prefix: str, d: int, heads: int, dropout_p: float):
        self.dropout_p = dropout_p
        self.ln1_gain = store.ones(f"{prefix}.ln1.gain", (d,))
        self.ln1_bias = store.zeros(f"{prefix}.ln1.bias", (d,))
        self.attn = MultiHeadAttention(store, f"{prefix}.attn", d, heads)
        self.ln2_gain = store.ones(f"{prefix}.ln2.gain", (d,))
        self.ln2_bias = store.zeros(f"{prefix}.ln2.bias", (d,))
        self.ffn_w1 = store.normal(f"{prefix}.ffn.w1", (d, d))
        self.ffn_b1 = store.zeros(f"{prefix}.ffn.b1", (d,))
        self.ffn_w2 = store.normal(f"{prefix}.ffn.w2", (d, d))
        self.ffn_b2 = store.zeros(f"{prefix}.ffn.b2", (d,))

    def __call__(
        self, x: Tensor, mask: np.ndarray, train_rng: np.random.Generator | None = None
    ) -> Tensor:
        normed = T.layernorm(x, self.ln1_gain.tensor, self.ln1_bias.tensor, eps=LN_EPS)
        x = x + self.attn(
            normed, normed, mask, causal=True, dropout_p=self.dropout_p, train_rng=train_rng
        )
        normed = T.layernorm(x, self.ln2_gain.tensor, self.ln2_bias.tensor, eps=LN_EPS)
        inner = T.relu(T.matmul(normed, self.ffn_w1.tensor) + self.ffn_b1.tensor)
        ffn_out = T.matmul(inner, self.ffn_w2.tensor) + self.ffn_b2.tensor
        x = x + T.dropout(ffn_out, self.dropout_p, train_rng)
        return apply_mask(x, mask)


class Encoder:
    """A stack of encoder blocks followed by a final layernorm."""

    def __init__(
        self, store: ParameterStore, prefix: str, d: int, heads: int, dropout_p: float, layers: int
    ):
        self.blocks = [EncoderBlock(store, f"{prefix}.block{i}", d, heads, dropout_p) for i in range(layers)]
        self.final_gain = store.ones(f"{prefix}.final.gain", (d,))
        self.final_bias = store.zeros(f"{prefix}.final.bias", (d,))

    def __call__(
        self, x: Tensor, mask: np.ndarray, train_rng: np.random.Generator | None = None
    ) -> Tensor:
        for block in self.blocks:
            x = block(x, mask, train_rng)
        out = T.layernorm(x, self.final_gain.tensor, self.final_bias.tensor, eps=LN_EPS)
        return apply_mask(out, mask)
