"""Attention tests against an independent per-head numpy reference."""

from __future__ import annotations

import numpy as np
import pytest

from fdcheck import check_gradients
from gcalab import tensor as T
from gcalab.attention import (
    Encoder,
    EncoderBlock,
    MultiHeadAttention,
    SequenceBatch,
    add_position_embedding,
    apply_mask,
    visibility,
)
from gcalab.backbone import ModelConfig
from gcalab.errors import ConfigError, ContractError, DimensionError
from gcalab.tensor import ParameterStore, Tensor


def reference_attention(q, kv, wq, wk, wv, wo, heads, kv_mask, causal):
    """Loop-over-heads reference: no reshapes, explicit row softmax."""
    batch, len_q, d = q.shape
    len_k = kv.shape[1]
    hd = d // heads
    qp, kp, vp = q @ wq, kv @ wk, kv @ wv
    context = np.zeros((batch, len_q, d))
    for h in range(heads):
        cols = slice(h * hd, (h + 1) * hd)
        scores = qp[..., cols] @ kp[..., cols].transpose(0, 2, 1) / np.sqrt(hd)
        for b in range(batch):
            for i in range(len_q):
                visible = kv_mask[b].copy()
                if causal:
                    visible &= np.arange(len_k) <= i
                if not visible.any():
                    continue
                row = scores[b, i]
                w = np.zeros(len_k)
                e = np.exp(row[visible] - row[visible].max())
                w[visible] = e / e.sum()
                context[b, i, cols] = w @ vp[b, :, cols]
    return context @ wo


def chain_attention(mha, query, keyvalue, kv_mask, causal, dropout_p=0.0, train_rng=None):
    """``MultiHeadAttention`` as a chain of small T ops: split, ``q @ kᵀ``,
    scale, ``softmax_lastdim``, ``dropout``, ``@ v``, merge. The fused
    ``T.attention`` must reproduce it bit for bit."""
    batch, len_q, d = query.shape
    len_k = keyvalue.shape[1]

    def split(x, length):
        return T.transpose(T.reshape(x, (batch, length, mha.heads, mha.head_dim)), (0, 2, 1, 3))

    q = split(T.matmul(query, mha.wq.tensor), len_q)
    k = split(T.matmul(keyvalue, mha.wk.tensor), len_k)
    v = split(T.matmul(keyvalue, mha.wv.tensor), len_k)
    scores = T.matmul(q, T.transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(mha.head_dim))
    visible = np.broadcast_to(kv_mask[:, None, None, :], (batch, 1, len_q, len_k)).copy()
    if causal:
        visible &= np.tril(np.ones((len_q, len_k), dtype=bool))[None, None]
    row_ok = visible.any(axis=-1)
    if not row_ok.all():
        visible[..., 0] |= ~row_ok
    weights = T.dropout(T.softmax_lastdim(scores, visible), dropout_p, train_rng)
    context = T.matmul(weights, v)
    merged = T.reshape(T.transpose(context, (0, 2, 1, 3)), (batch, len_q, d))
    out = T.matmul(merged, mha.wo.tensor)
    if not row_ok.all():
        out = T.mul(out, Tensor(row_ok[:, 0, :, None].astype(np.float64)))
    return out


def make_mha(d=8, heads=2, seed=3):
    store = ParameterStore(seed=seed)
    return MultiHeadAttention(store, "attn", d, heads), store


def make_batch(rng, batch=3, length=5, lengths=None):
    lengths = lengths if lengths is not None else rng.integers(1, length + 1, size=batch)
    ids = np.zeros((batch, length), dtype=np.int64)
    for b, l in enumerate(lengths):
        ids[b, :l] = rng.integers(1, 50, size=l)
    return SequenceBatch(ids)


class TestConfig:
    # Attention takes its geometry from ModelConfig, which is its one validator.
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(d=0, heads=1),
            dict(d=8, heads=3),
            dict(d=8, heads=2, dropout_p=1.0),
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigError):
            ModelConfig(vocab_a=10, vocab_b=5, layers=1, max_len=8, **kwargs)


class TestSequenceBatch:
    def test_mask_is_the_nonzero_ids(self):
        batch = SequenceBatch(np.array([[3, 1, 0], [0, 0, 0]]))
        assert batch.ids.dtype == np.int64 and batch.mask.dtype == bool
        np.testing.assert_array_equal(batch.mask, [[True, True, False], [False, False, False]])

    def test_ids_must_be_two_dimensional(self):
        with pytest.raises(DimensionError):
            SequenceBatch(np.array([1, 2]))


class TestMultiHeadAttention:
    @pytest.mark.parametrize("heads,causal", [(1, False), (2, False), (2, True), (4, True)])
    def test_matches_reference(self, heads, causal):
        rng = np.random.default_rng(20 + heads)
        d, batch, length = 8, 3, 5
        mha, _ = make_mha(d=d, heads=heads)
        q = rng.normal(size=(batch, length, d))
        kv = q if causal else rng.normal(size=(batch, 4, d))
        kv_mask = np.ones(kv.shape[:2], dtype=bool)
        kv_mask[0, -1] = False
        got = mha(Tensor(q), Tensor(kv), visibility(kv_mask, length, causal)).data
        want = reference_attention(
            q, kv, mha.wq.tensor.data, mha.wk.tensor.data, mha.wv.tensor.data,
            mha.wo.tensor.data, heads, kv_mask, causal,
        )
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_masked_kv_positions_have_no_influence(self):
        rng = np.random.default_rng(30)
        mha, _ = make_mha()
        q = Tensor(rng.normal(size=(2, 3, 8)))
        kv = rng.normal(size=(2, 6, 8))
        kv_mask = rng.random((2, 6)) < 0.5
        kv_mask[:, 0] = True
        poked = kv.copy()
        poked[~kv_mask] = 99.0
        seen = visibility(kv_mask, 3, causal=False)
        a = mha(q, Tensor(kv), seen).data
        b = mha(q, Tensor(poked), seen).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_empty_kv_sequence_yields_zero_rows(self):
        rng = np.random.default_rng(31)
        mha, _ = make_mha()
        q = Tensor(rng.normal(size=(2, 3, 8)))
        kv = Tensor(rng.normal(size=(2, 4, 8)))
        kv_mask = np.ones((2, 4), dtype=bool)
        kv_mask[1] = False
        seen = visibility(kv_mask, 3, causal=False)
        assert not seen.visible.flags.writeable and not seen.row_ok.flags.writeable
        out = mha(q, kv, seen).data
        assert (out[1] == 0.0).all()
        assert np.abs(out[0]).max() > 0.0

    def test_causal_requires_square(self):
        with pytest.raises(ContractError):
            visibility(np.ones((1, 4), bool), 3, causal=True)

    def test_gradients(self):
        rng = np.random.default_rng(32)
        mha, store = make_mha(d=4, heads=2)
        q = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        kv = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        kv_mask = np.array([[True, True, False], [True, True, True]])
        weights = Tensor(rng.normal(size=(2, 3, 4)))
        leaves = {"q": q, "kv": kv}
        leaves.update({p.name: p.tensor for p in store.parameters()})
        seen = visibility(kv_mask, 3, causal=False)
        check_gradients(lambda: (mha(q, kv, seen) * weights).sum(), leaves)


class TestFusedParity:
    """The fused op against the chain it replaces: equal bits, not a tolerance."""

    def _run(self, path, case):
        rng = np.random.default_rng(80)
        # head_dim 3: a scale of 1/sqrt(3) is inexact, so rounding order shows.
        d, heads, batch, len_q = 6, 2, 3, 5
        mha, store = make_mha(d=d, heads=heads, seed=81)
        x = Tensor(rng.normal(size=(batch, len_q, d)), requires_grad=True)
        gain = Tensor(rng.uniform(0.5, 1.5, size=d), requires_grad=True)
        bias = Tensor(rng.uniform(-0.5, 0.5, size=d), requires_grad=True)
        weights = Tensor(rng.normal(size=(batch, len_q, d)))
        # One layernorm feeds q, k and v, as in an encoder block, so the
        # order in which their gradients add up is part of the check.
        normed = T.layernorm(x, gain, bias)
        if case == "causal-dropout":
            kv_mask = np.array([[1, 1, 1, 1, 1], [1, 1, 1, 0, 0], [1, 0, 0, 0, 0]], bool)
            kv, causal = normed, True
            dropout_p, train_rng = 0.3, np.random.default_rng(82)
        else:
            y = Tensor(rng.normal(size=(batch, 4, d)), requires_grad=True)
            kv_mask = np.array([[1, 1, 1, 0], [0, 0, 0, 0], [1, 1, 1, 1]], bool)
            kv, causal = y, False
            dropout_p, train_rng = 0.0, None
        out = path(mha, normed, kv, kv_mask, causal, dropout_p, train_rng)
        (x + out * weights).sum().backward()
        leaves = {"x": x, "gain": gain, "bias": bias}
        if case != "causal-dropout":
            leaves["y"] = y
        leaves.update({p.name: p.tensor for p in store.parameters()})
        state = None if train_rng is None else train_rng.bit_generator.state
        return out.data, {name: leaf.grad for name, leaf in leaves.items()}, state

    @staticmethod
    def _fused(mha, query, keyvalue, kv_mask, causal, dropout_p, train_rng):
        seen = visibility(kv_mask, query.shape[1], causal)
        return mha(query, keyvalue, seen, dropout_p=dropout_p, train_rng=train_rng)

    @pytest.mark.parametrize("case", ["causal-dropout", "cross-empty-row"])
    def test_bitwise_equal_to_chain(self, case):
        out, grads, state = self._run(self._fused, case)
        ref_out, ref_grads, ref_state = self._run(chain_attention, case)
        assert np.array_equal(out, ref_out)
        assert grads.keys() == ref_grads.keys()
        for name, grad in grads.items():
            assert grad is not None, name
            assert np.array_equal(grad, ref_grads[name]), name
        assert state == ref_state
        if case == "cross-empty-row":
            assert (out[1] == 0.0).all()

    def test_visibility_without_empty_rows_has_no_row_ok(self):
        seen = visibility(np.ones((2, 4), dtype=bool), 4, causal=True)
        assert seen.row_ok is None
        assert np.array_equal(seen.visible[0, 0], np.tril(np.ones((4, 4), dtype=bool)))


class TestEncoderBlock:
    def _block(self, d=8, heads=2, dropout=0.0, seed=40):
        store = ParameterStore(seed=seed)
        return EncoderBlock(store, "enc.block0", d, heads, dropout), store

    def test_future_positions_do_not_affect_past(self):
        rng = np.random.default_rng(41)
        block, _ = self._block()
        batch = make_batch(rng, batch=2, length=6, lengths=[6, 6])
        hidden = rng.normal(size=(2, 6, 8))
        seen = visibility(batch.mask, 6, causal=True)
        base = block(Tensor(hidden), batch.mask, seen).data
        poked = hidden.copy()
        poked[:, 4] += 3.0
        out = block(Tensor(poked), batch.mask, seen).data
        np.testing.assert_allclose(out[:, :4], base[:, :4], atol=1e-12)
        assert np.abs(out[:, 4:] - base[:, 4:]).max() > 1e-6

    def test_padding_rows_stay_zero(self):
        rng = np.random.default_rng(42)
        block, _ = self._block()
        batch = make_batch(rng, batch=3, length=5, lengths=[5, 2, 0])
        hidden = rng.normal(size=(3, 5, 8)) * batch.mask[:, :, None]
        out = block(Tensor(hidden), batch.mask, visibility(batch.mask, 5, causal=True)).data
        assert (out[~batch.mask] == 0.0).all()
        assert (out[2] == 0.0).all()

    def test_gradients(self):
        rng = np.random.default_rng(43)
        block, store = self._block(d=4, heads=2, seed=44)
        batch = make_batch(rng, batch=2, length=3, lengths=[3, 2])
        x = Tensor(rng.normal(size=(2, 3, 4)) * batch.mask[:, :, None], requires_grad=True)
        weights = Tensor(rng.normal(size=(2, 3, 4)))
        leaves = {"x": x}
        leaves.update({p.name: p.tensor for p in store.parameters()})
        seen = visibility(batch.mask, 3, causal=True)
        check_gradients(lambda: (block(x, batch.mask, seen) * weights).sum(), leaves)

    def test_dropout_deterministic_given_rng_seed(self):
        rng = np.random.default_rng(45)
        block, _ = self._block(dropout=0.3)
        batch = make_batch(rng, batch=2, length=4, lengths=[4, 3])
        hidden = Tensor(rng.normal(size=(2, 4, 8)) * batch.mask[:, :, None])
        seen = visibility(batch.mask, 4, causal=True)
        a = block(hidden, batch.mask, seen, train_rng=np.random.default_rng(7)).data
        b = block(hidden, batch.mask, seen, train_rng=np.random.default_rng(7)).data
        c = block(hidden, batch.mask, seen, train_rng=np.random.default_rng(8)).data
        np.testing.assert_array_equal(a, b)
        assert np.abs(a - c).max() > 0.0


class TestEncoder:
    def test_stack_runs_and_masks(self):
        rng = np.random.default_rng(50)
        store = ParameterStore(seed=51)
        encoder = Encoder(store, "enc", d=8, heads=2, dropout_p=0.0, layers=2)
        batch = make_batch(rng, batch=3, length=6, lengths=[6, 4, 1])
        hidden = rng.normal(size=(3, 6, 8)) * batch.mask[:, :, None]
        out = encoder(Tensor(hidden), batch.mask).data
        assert out.shape == (3, 6, 8)
        assert (out[~batch.mask] == 0.0).all()


class TestPositionEmbedding:
    def test_adds_expected_rows(self):
        rng = np.random.default_rng(60)
        batch = make_batch(rng, batch=2, length=4, lengths=[4, 2])
        hidden = rng.normal(size=(2, 4, 6)) * batch.mask[:, :, None]
        table = Tensor(rng.normal(size=(8, 6)))
        out = add_position_embedding(Tensor(hidden), batch.mask, table).data
        expected = (hidden + table.data[:4][None]) * batch.mask[:, :, None]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_sequence_longer_than_table(self):
        rng = np.random.default_rng(61)
        batch = make_batch(rng, batch=1, length=5, lengths=[5])
        hidden = Tensor(rng.normal(size=(1, 5, 4)) * batch.mask[:, :, None])
        with pytest.raises(DimensionError):
            add_position_embedding(hidden, batch.mask, Tensor(np.zeros((3, 4))))


def test_apply_mask_zeroes_and_preserves():
    rng = np.random.default_rng(70)
    x = rng.normal(size=(2, 3, 4))
    mask = np.array([[True, False, True], [False, False, True]])
    out = apply_mask(Tensor(x), mask).data
    assert (out[~mask] == 0.0).all()
    np.testing.assert_allclose(out[mask], x[mask])
