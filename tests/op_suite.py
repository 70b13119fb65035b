"""Shape/op case table for the finite-difference gradient suite.

Each case builds fresh leaves from a seeded rng and a scalar loss that mixes
the op's output with fixed random weights (a bare ``.sum()`` would accept a
backward pass that returns all-ones). The table is shared by the unit tests
(one test per case) and the acceptance gate (timed full sweep).
"""

from __future__ import annotations

import zlib
from typing import Callable

import numpy as np

from gcalab import tensor as T
from gcalab.tensor import Tensor

Case = tuple[str, Callable[[np.random.Generator], tuple[Callable[[], Tensor], dict[str, Tensor]]], float]

SIMPLE_TOL = 1e-6
COMPOSITE_TOL = 1e-4


def _leaf(rng: np.random.Generator, shape: tuple[int, ...], lo: float = -1.5, hi: float = 1.5) -> Tensor:
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)


def _away_from_zero(rng: np.random.Generator, shape: tuple[int, ...]) -> Tensor:
    # Keep |x| >= 0.1 so central differences never straddle the relu kink.
    magnitude = rng.uniform(0.1, 1.5, size=shape)
    sign = rng.choice([-1.0, 1.0], size=shape)
    return Tensor(magnitude * sign, requires_grad=True)


def _weighted(rng: np.random.Generator, out: Tensor) -> Tensor:
    weights = Tensor(rng.uniform(-1.0, 1.0, size=out.shape))
    return (out * weights).sum()


def _binary(op, shape_a, shape_b):
    def build(rng):
        a, b = _leaf(rng, shape_a), _leaf(rng, shape_b)
        return lambda: _weighted(rng_fixed(rng), op(a, b)), {"a": a, "b": b}

    return build


def rng_fixed(rng: np.random.Generator) -> np.random.Generator:
    # Weights must not change between the FD probe evaluations of one case.
    return np.random.default_rng(12345)


def _unary(op, shape, leaf_fn=_leaf):
    def build(rng):
        x = leaf_fn(rng, shape)
        return lambda: _weighted(rng_fixed(rng), op(x)), {"x": x}

    return build


def _softmax_case(shape, masked: bool):
    def build(rng):
        x = _leaf(rng, shape, -2.0, 2.0)
        if masked:
            mask = rng.random(shape) < 0.6
            mask[..., 0] = True
        else:
            mask = None
        return lambda: _weighted(rng_fixed(rng), T.softmax_lastdim(x, mask)), {"x": x}

    return build


def _layernorm_case(shape):
    def build(rng):
        x = _leaf(rng, shape)
        gain = Tensor(rng.uniform(0.5, 1.5, size=(shape[-1],)), requires_grad=True)
        bias = Tensor(rng.uniform(-0.5, 0.5, size=(shape[-1],)), requires_grad=True)
        f = lambda: _weighted(rng_fixed(rng), T.layernorm(x, gain, bias, eps=1e-8))
        return f, {"x": x, "gain": gain, "bias": bias}

    return build


def _embedding_case():
    def build(rng):
        table = _leaf(rng, (7, 4))
        ids = rng.integers(0, 7, size=(2, 5))
        return lambda: _weighted(rng_fixed(rng), T.embedding_gather(table, ids)), {"table": table}

    return build


def _select_case():
    def build(rng):
        x = _leaf(rng, (3, 5, 4))
        positions = rng.integers(0, 5, size=3)
        return lambda: _weighted(rng_fixed(rng), T.select_positions(x, positions)), {"x": x}

    return build


def _composite_case():
    def build(rng):
        a = _leaf(rng, (3, 4))
        b = _leaf(rng, (4, 5))
        c = _leaf(rng, (5,))
        d = _leaf(rng, (3, 5))
        f = lambda: _weighted(rng_fixed(rng), T.sigmoid(T.matmul(a, b) + c) * d)
        return f, {"a": a, "b": b, "c": c, "d": d}

    return build


def _reshape_case():
    def build(rng):
        x = _leaf(rng, (2, 3, 4))
        f = lambda: _weighted(rng_fixed(rng), T.reshape(T.transpose(x, (0, 2, 1)), (2, 12)))
        return f, {"x": x}

    return build


def _attention_leaves(rng, batch, len_q, len_k, d):
    return {
        "q": _leaf(rng, (batch, len_q, d)),
        "k": _leaf(rng, (batch, len_k, d)),
        "v": _leaf(rng, (batch, len_k, d)),
    }


def _attention_case(causal: bool, empty_row: bool, p: float, rows: bool = False):
    """Fused attention over a ragged kv mask; ``empty_row`` masks one batch
    row's whole kv sequence, which ``visibility`` patches to see key 0.
    ``rows`` picks one query row per batch row for the softmax."""

    def build(rng):
        from gcalab.attention import visibility

        batch, heads, len_q = 2, 2, 4
        len_k = len_q if causal else 3
        leaves = _attention_leaves(rng, batch, len_q, len_k, 4)
        kv_mask = np.array([[True] * len_k, [True] + [False] * (len_k - 1)])
        if empty_row:
            kv_mask[1] = False
        visible = visibility(kv_mask, len_q, causal).visible
        kept = rng.random((batch, heads, len_q, len_k)) >= p if p else None
        picked = rng.integers(0, len_q, size=batch) if rows else None
        q, k, v = leaves["q"], leaves["k"], leaves["v"]
        f = lambda: _weighted(rng_fixed(rng), T.attention(q, k, v, heads, visible, 0.7, kept, p, picked))
        return f, leaves

    return build


CASES: list[Case] = [
    ("add_same_2d", _binary(T.add, (3, 4), (3, 4)), SIMPLE_TOL),
    ("add_broadcast_row", _binary(T.add, (3, 4), (4,)), SIMPLE_TOL),
    ("add_broadcast_3d", _binary(T.add, (2, 3, 4), (1, 1, 4)), SIMPLE_TOL),
    ("sub_same_2d", _binary(T.sub, (3, 4), (3, 4)), SIMPLE_TOL),
    ("sub_broadcast_lead", _binary(T.sub, (2, 3, 4), (3, 4)), SIMPLE_TOL),
    ("mul_same_2d", _binary(T.mul, (3, 4), (3, 4)), SIMPLE_TOL),
    ("mul_broadcast_row", _binary(T.mul, (2, 3, 4), (4,)), SIMPLE_TOL),
    ("mul_broadcast_col", _binary(T.mul, (3, 4), (3, 1)), SIMPLE_TOL),
    ("sigmoid_2d", _unary(T.sigmoid, (4, 5)), SIMPLE_TOL),
    ("tanh_2d", _unary(T.tanh, (4, 5)), SIMPLE_TOL),
    ("relu_2d", _unary(T.relu, (4, 5), _away_from_zero), SIMPLE_TOL),
    ("softplus_2d", _unary(T.softplus, (4, 5)), SIMPLE_TOL),
    ("matmul_2d", _binary(T.matmul, (3, 4), (4, 5)), COMPOSITE_TOL),
    ("matmul_batched", _binary(T.matmul, (2, 3, 4), (2, 4, 5)), COMPOSITE_TOL),
    ("matmul_broadcast", _binary(T.matmul, (2, 3, 4), (4, 5)), COMPOSITE_TOL),
    ("softmax_unmasked", _softmax_case((3, 6), masked=False), COMPOSITE_TOL),
    ("softmax_masked", _softmax_case((2, 3, 6), masked=True), COMPOSITE_TOL),
    ("layernorm_2d", _layernorm_case((3, 8)), COMPOSITE_TOL),
    ("layernorm_3d", _layernorm_case((2, 3, 6)), COMPOSITE_TOL),
    ("concat_lastdim", _binary(T.concat_lastdim, (2, 3, 4), (2, 3, 5)), SIMPLE_TOL),
    ("embedding_gather", _embedding_case(), COMPOSITE_TOL),
    ("narrow_axis1", _unary(lambda x: T.narrow(x, 1, 1, 3), (2, 6, 4)), SIMPLE_TOL),
    ("pad_axis1", _unary(lambda x: T.pad_axis(x, 1, 6), (2, 3, 4)), SIMPLE_TOL),
    ("select_positions", _select_case(), SIMPLE_TOL),
    ("transpose_reshape", _reshape_case(), SIMPLE_TOL),
    ("composite_mlp", _composite_case(), COMPOSITE_TOL),
    ("attention_causal", _attention_case(causal=True, empty_row=False, p=0.0), COMPOSITE_TOL),
    ("attention_causal_dropout", _attention_case(causal=True, empty_row=False, p=0.3), COMPOSITE_TOL),
    ("attention_cross_empty_row", _attention_case(causal=False, empty_row=True, p=0.0), COMPOSITE_TOL),
    ("attention_rows_causal_dropout", _attention_case(causal=True, empty_row=False, p=0.3, rows=True), COMPOSITE_TOL),
    ("attention_rows_cross_empty_row", _attention_case(causal=False, empty_row=True, p=0.0, rows=True), COMPOSITE_TOL),
]


def run_case(case: Case, seed: int = 0) -> dict[str, float]:
    from fdcheck import check_gradients

    name, build, tol = case
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    f, leaves = build(rng)
    return check_gradients(f, leaves, tol=tol)


# -- random shape families -------------------------------------------------------
#
# The fixed table above pins known-tricky cases; the samplers below draw fresh
# shapes on every call so the sweep covers the op's whole shape family. Sizes
# stay tiny on purpose: finite differences cost two forwards per leaf element.


def _shape(rng, max_rank=3, max_size=5, min_rank=1):
    rank = int(rng.integers(min_rank, max_rank + 1))
    return tuple(int(rng.integers(1, max_size + 1)) for _ in range(rank))


def _broadcast_partner(rng, shape):
    """A random shape that broadcasts against ``shape``."""
    kind = rng.choice(["same", "ones", "suffix"])
    if kind == "same":
        return shape
    partner = list(shape)
    if kind == "suffix":
        partner = partner[int(rng.integers(0, len(partner))):]
    return tuple(1 if rng.random() < 0.4 else n for n in partner) or (1,)


def _elementwise_family(op):
    def sample(rng):
        shape = _shape(rng)
        a = _leaf(rng, shape)
        b = _leaf(rng, _broadcast_partner(rng, shape))
        out_shape = np.broadcast_shapes(a.shape, b.shape)
        weights = Tensor(rng.uniform(-1.0, 1.0, size=out_shape))
        return lambda: (op(a, b) * weights).sum(), {"a": a, "b": b}, SIMPLE_TOL

    return sample


def _activation_family(op, leaf_fn=_leaf):
    def sample(rng):
        x = leaf_fn(rng, _shape(rng))
        weights = Tensor(rng.uniform(-1.0, 1.0, size=x.shape))
        return lambda: (op(x) * weights).sum(), {"x": x}, SIMPLE_TOL

    return sample


def _loss_against(rng, build):
    out_shape = build().shape
    weights = Tensor(rng.uniform(-1.0, 1.0, size=out_shape))
    return lambda: (build() * weights).sum()


def _matmul_family(rng):
    batch = tuple(int(rng.integers(1, 4)) for _ in range(int(rng.integers(0, 3))))
    m, k, n = (int(rng.integers(1, 6)) for _ in range(3))
    a = _leaf(rng, batch + (m, k))
    b_batch = batch if rng.random() < 0.5 else ()
    b = _leaf(rng, b_batch + (k, n))
    return _loss_against(rng, lambda: T.matmul(a, b)), {"a": a, "b": b}, COMPOSITE_TOL


def _softmax_family(rng):
    shape = _shape(rng, max_rank=3, max_size=6)
    x = _leaf(rng, shape, -2.0, 2.0)
    mask = None
    if rng.random() < 0.5:
        mask = rng.random(shape) < 0.6
        mask[..., 0] = True
    return _loss_against(rng, lambda: T.softmax_lastdim(x, mask)), {"x": x}, COMPOSITE_TOL


def _layernorm_family(rng):
    shape = _shape(rng, max_size=6)
    shape = shape[:-1] + (max(shape[-1], 2),)
    x = _leaf(rng, shape)
    gain = Tensor(rng.uniform(0.5, 1.5, size=(shape[-1],)), requires_grad=True)
    bias = Tensor(rng.uniform(-0.5, 0.5, size=(shape[-1],)), requires_grad=True)
    f = _loss_against(rng, lambda: T.layernorm(x, gain, bias, eps=1e-8))
    return f, {"x": x, "gain": gain, "bias": bias}, COMPOSITE_TOL


def _embedding_family(rng):
    vocab, width = int(rng.integers(3, 9)), int(rng.integers(1, 6))
    table = _leaf(rng, (vocab, width))
    ids = rng.integers(0, vocab, size=_shape(rng, max_rank=2, max_size=5))
    f = _loss_against(rng, lambda: T.embedding_gather(table, ids))
    return f, {"table": table}, COMPOSITE_TOL


def _concat_family(rng):
    prefix = _shape(rng, max_rank=2)
    a = _leaf(rng, prefix + (int(rng.integers(1, 5)),))
    b = _leaf(rng, prefix + (int(rng.integers(1, 5)),))
    return _loss_against(rng, lambda: T.concat_lastdim(a, b)), {"a": a, "b": b}, SIMPLE_TOL


def _narrow_family(rng):
    shape = _shape(rng)
    x = _leaf(rng, shape)
    axis = int(rng.integers(0, len(shape)))
    start = int(rng.integers(0, shape[axis]))
    length = int(rng.integers(1, shape[axis] - start + 1))
    return _loss_against(rng, lambda: T.narrow(x, axis, start, length)), {"x": x}, SIMPLE_TOL


def _pad_family(rng):
    shape = _shape(rng)
    x = _leaf(rng, shape)
    axis = int(rng.integers(0, len(shape)))
    new_length = shape[axis] + int(rng.integers(0, 4))
    return _loss_against(rng, lambda: T.pad_axis(x, axis, new_length)), {"x": x}, SIMPLE_TOL


def _select_family(rng):
    batch, length, width = (int(rng.integers(1, 6)) for _ in range(3))
    x = _leaf(rng, (batch, length, width))
    positions = rng.integers(0, length, size=batch)
    return _loss_against(rng, lambda: T.select_positions(x, positions)), {"x": x}, SIMPLE_TOL


def _transpose_family(rng):
    shape = _shape(rng, min_rank=2)
    x = _leaf(rng, shape)
    axes = tuple(int(i) for i in rng.permutation(len(shape)))
    return _loss_against(rng, lambda: T.transpose(x, axes)), {"x": x}, SIMPLE_TOL


def _reshape_family(rng):
    shape = _shape(rng)
    x = _leaf(rng, shape)
    total = int(np.prod(shape))
    divisors = [i for i in range(1, total + 1) if total % i == 0]
    first = int(rng.choice(divisors))
    new_shape = (first, total // first) if rng.random() < 0.7 else (total,)
    return _loss_against(rng, lambda: T.reshape(x, new_shape)), {"x": x}, SIMPLE_TOL


def _sum_family(rng):
    x = _leaf(rng, _shape(rng))
    weights = Tensor(rng.uniform(-1.0, 1.0, size=x.shape))
    return lambda: T.sum_all(x * weights), {"x": x}, SIMPLE_TOL


def _dropout_family(rng):
    x = _leaf(rng, _shape(rng))
    p = float(rng.choice([0.0, 0.3, 0.6]))
    mask_seed = int(rng.integers(0, 2**31))
    # Re-seeding per call freezes the mask across the FD probe evaluations.
    build = lambda: T.dropout(x, p, np.random.default_rng(mask_seed))
    return _loss_against(rng, build), {"x": x}, SIMPLE_TOL


def _attention_family(rng, rows: bool = False):
    """``rows``: one query row per batch row takes the softmax."""
    from gcalab.attention import visibility

    batch = int(rng.integers(1, 3))
    heads = int(rng.integers(1, 3))
    d = heads * int(rng.integers(1, 3))
    causal = bool(rng.random() < 0.5)
    len_q = int(rng.integers(1, 5))
    len_k = len_q if causal else int(rng.integers(1, 5))
    # Ragged, left-packed kv lengths; length 0 is an all-masked row to patch.
    lengths = rng.integers(0, len_k + 1, size=batch)
    kv_mask = np.arange(len_k)[None, :] < lengths[:, None]
    seen = visibility(kv_mask, len_q, causal)
    p = float(rng.choice([0.0, 0.3, 0.6]))
    # Drawn once, so the mask stays fixed across the FD probe evaluations.
    kept = rng.random((batch, heads, len_q, len_k)) >= p if p else None
    scale = 1.0 / np.sqrt(d // heads)
    leaves = _attention_leaves(rng, batch, len_q, len_k, d)
    picked = rng.integers(0, len_q, size=batch) if rows else None
    q, k, v = leaves["q"], leaves["k"], leaves["v"]
    f = _loss_against(rng, lambda: T.attention(q, k, v, heads, seen.visible, scale, kept, p, picked))
    return f, leaves, COMPOSITE_TOL


def _gca_family(rng):
    from gcalab.attention import visibility
    from gcalab.gca import GcaBlock, GcaConfig
    from gcalab.tensor import ParameterStore

    d = int(rng.choice([2, 4, 6]))
    heads = int(rng.choice([h for h in (1, 2, d) if d % h == 0]))
    cfg = GcaConfig(
        gate_activation=str(rng.choice(["tanh", "sigmoid"])),
        use_layernorm=bool(rng.random() < 0.5),
        heads=heads,
        gate_hidden=int(rng.integers(1, 2 * d + 1)) if rng.random() < 0.5 else None,
    )
    store = ParameterStore(seed=int(rng.integers(0, 2**31)))
    block = GcaBlock(store, "gca.0.a", d, cfg)
    # Open the gate and push its relu inputs away from the kink so central
    # differences never straddle a branch flip.
    block.gate_b1.tensor.data = rng.uniform(0.15, 0.5, size=block.gate_b1.tensor.shape)
    block.gate_w2.tensor.data = rng.normal(0.0, 0.3, size=block.gate_w2.tensor.shape)
    block.gate_b2.tensor.data = rng.uniform(-0.3, 0.3, size=block.gate_b2.tensor.shape)

    size = int(rng.integers(1, 3))

    def thread(length):
        mask = np.zeros((size, length), dtype=bool)
        for row in range(size):
            mask[row, : int(rng.integers(1, length + 1))] = True
        hidden = Tensor(rng.normal(size=(size, length, d)) * mask[:, :, None], requires_grad=True)
        return hidden, mask

    x_q, q_mask = thread(int(rng.integers(1, 5)))
    x_kv, kv_mask = thread(int(rng.integers(1, 5)))
    leaves = {"x_q": x_q, "x_kv": x_kv}
    leaves.update({p.name: p.tensor for p in store.trainable_parameters()})
    seen = visibility(kv_mask, x_q.shape[1], causal=False)
    f = _loss_against(rng, lambda: block(x_q, q_mask, x_kv, kv_mask, seen))
    return f, leaves, COMPOSITE_TOL


FAMILIES: list[tuple[str, Callable]] = [
    ("add", _elementwise_family(T.add)),
    ("sub", _elementwise_family(T.sub)),
    ("mul", _elementwise_family(T.mul)),
    ("sigmoid", _activation_family(T.sigmoid)),
    ("tanh", _activation_family(T.tanh)),
    ("relu", _activation_family(T.relu, _away_from_zero)),
    ("softplus", _activation_family(T.softplus)),
    ("matmul", _matmul_family),
    ("softmax_lastdim", _softmax_family),
    ("layernorm", _layernorm_family),
    ("embedding_gather", _embedding_family),
    ("concat_lastdim", _concat_family),
    ("narrow", _narrow_family),
    ("pad_axis", _pad_family),
    ("select_positions", _select_family),
    ("transpose", _transpose_family),
    ("reshape", _reshape_family),
    ("sum_all", _sum_family),
    ("dropout", _dropout_family),
    ("attention", _attention_family),
    ("attention_rows", lambda rng: _attention_family(rng, rows=True)),
    ("gca_forward", _gca_family),
]


def run_family(name: str, sampler: Callable, samples: int = 20, seed: int = 0) -> float:
    """FD-check ``samples`` fresh draws; returns the worst relative error seen."""
    from fdcheck import check_gradients

    worst = 0.0
    for index in range(samples):
        rng = np.random.default_rng([seed, zlib.crc32(name.encode()), index])
        f, leaves, tol = sampler(rng)
        errors = check_gradients(f, leaves, tol=tol)
        worst = max(worst, max(errors.values()))
    return worst
