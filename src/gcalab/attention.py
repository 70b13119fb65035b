"""Sequence batches, multi-head attention, and causal encoder blocks.

Sequences are left-packed: real items occupy positions 0..len-1 and padding
(id 0, mask false) fills the tail. A ``SequenceBatch`` is model input only;
hidden states move between blocks as plain ``[batch, length, d]`` tensors
next to their ``[batch, length]`` masks:

    add_position_embedding(x, mask, table) -> Tensor
    MultiHeadAttention(query, keyvalue, seen, dropout_p=0.0, train_rng=None) -> Tensor
    EncoderBlock(x, mask, seen, train_rng=None) -> Tensor
    Encoder(x, mask, train_rng=None) -> Tensor

``visibility(kv_mask, len_q, causal)`` turns a kv mask into the attention
mask, ``seen``, the one input an attention call reads its mask from. It is
built once per pair of threads and shared: an ``Encoder`` builds it once for
all its blocks.

Every block multiplies its output by the mask on exit, so padded positions
carry exact zero vectors between stages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError, DimensionError
from .tensor import ParameterStore, Tensor


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
    """Add learned absolute position rows to ``x``, then zero padded positions."""
    length = x.shape[1]
    if length > table.shape[0]:
        raise DimensionError(f"sequence length {length} exceeds position table {table.shape[0]}")
    rows = T.narrow(table, 0, 0, length)
    positioned = x + T.reshape(rows, (1, length, table.shape[1]))
    return apply_mask(positioned, mask)


@dataclass(frozen=True)
class Visibility:
    """Which keys each query row may attend to, for one (kv mask, query
    length, causal) triple. Built once per forward and shared by every
    attention call over the same pair of threads.

    ``visible`` is the bool ``[batch, 1, len_q, len_k]`` mask. A row that sees
    no key (an entirely padded kv sequence) is patched to see key 0, so its
    softmax is defined; ``row_ok`` is then the float ``[batch, len_q, 1]``
    multiplier that zeroes those rows' output, and None when every row sees a
    key. Both arrays are read-only.
    """

    visible: np.ndarray
    row_ok: np.ndarray | None


def visibility(kv_mask: np.ndarray, len_q: int, causal: bool) -> Visibility:
    """The visibility of ``len_q`` query rows over keys where ``kv_mask`` is
    true; ``causal`` also hides every key after the query's own position."""
    batch, len_k = kv_mask.shape
    if causal and len_q != len_k:
        raise ContractError("causal attention requires matching query/key lengths")
    visible = np.broadcast_to(kv_mask[:, None, None, :], (batch, 1, len_q, len_k)).copy()
    if causal:
        visible &= np.tril(np.ones((len_q, len_k), dtype=bool))[None, None]
    sees_key = visible.any(axis=-1)
    row_ok = None
    if not sees_key.all():
        # Patch empty rows so softmax is defined, then zero their output.
        visible[..., 0] |= ~sees_key
        row_ok = sees_key[:, 0, :, None].astype(np.float64)
        row_ok.flags.writeable = False
    visible.flags.writeable = False
    return Visibility(visible, row_ok)


class MultiHeadAttention:
    """Scaled dot-product attention with per-head projections (no biases).

    Queries and keys/values may come from different threads and lengths. Rows
    whose visible key set is empty (an entirely padded kv sequence) produce a
    zero output vector instead of a degenerate softmax. The four projections
    are ``matmul`` nodes; everything between them is one ``T.attention`` node.
    """

    def __init__(self, store: ParameterStore, prefix: str, d: int, heads: int):
        self.d = d
        self.heads = heads
        self.head_dim = d // heads
        self.wq = store.normal(f"{prefix}.wq", (d, d))
        self.wk = store.normal(f"{prefix}.wk", (d, d))
        self.wv = store.normal(f"{prefix}.wv", (d, d))
        self.wo = store.normal(f"{prefix}.wo", (d, d))

    def __call__(
        self,
        query: Tensor,
        keyvalue: Tensor,
        seen: Visibility,
        dropout_p: float = 0.0,
        train_rng: np.random.Generator | None = None,
    ) -> Tensor:
        """``seen`` is the keyvalue thread's ``visibility`` for ``query``'s length."""
        batch, len_q, d = query.shape
        len_k = keyvalue.shape[1]
        if d != self.d or keyvalue.shape[2] != self.d:
            raise DimensionError(f"expected feature dim {self.d}, got {query.shape} x {keyvalue.shape}")

        q = T.matmul(query, self.wq.tensor)
        k = T.matmul(keyvalue, self.wk.tensor)
        v = T.matmul(keyvalue, self.wv.tensor)
        kept = T.dropout_draw((batch, self.heads, len_q, len_k), dropout_p, train_rng)
        scale = 1.0 / np.sqrt(self.head_dim)
        context = T.attention(q, k, v, self.heads, seen.visible, scale, kept, dropout_p)
        out = T.matmul(context, self.wo.tensor)
        if seen.row_ok is not None:
            out = T.mul(out, Tensor(seen.row_ok))
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
        self,
        x: Tensor,
        mask: np.ndarray,
        seen: Visibility,
        train_rng: np.random.Generator | None = None,
    ) -> Tensor:
        """``seen`` is ``visibility(mask, length, causal=True)``."""
        normed = T.layernorm(x, self.ln1_gain.tensor, self.ln1_bias.tensor)
        x = x + self.attn(normed, normed, seen, self.dropout_p, train_rng)
        normed = T.layernorm(x, self.ln2_gain.tensor, self.ln2_bias.tensor)
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
        seen = visibility(mask, x.shape[1], causal=True)
        for block in self.blocks:
            x = block(x, mask, seen, train_rng)
        out = T.layernorm(x, self.final_gain.tensor, self.final_bias.tensor)
        return apply_mask(out, mask)
