"""GCA block tests: reductions, composition oracle, alignment, gate parity, probes."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pytest

from fdcheck import check_gradients
from gcalab import tensor as T
from gcalab.attention import apply_mask
from gcalab.errors import ConfigError, ContractError, DimensionError
from gcalab.gca import GcaBlock, GcaConfig, GcaProbe, align_lengths
from gcalab.tensor import ParameterStore, Tensor
from test_attention import reference_attention


def make_block(seed=1, d=8, **cfg_kwargs):
    cfg = GcaConfig(**cfg_kwargs) if cfg_kwargs else GcaConfig(heads=2)
    if "heads" not in cfg_kwargs:
        cfg.heads = 2
    store = ParameterStore(seed=seed)
    return GcaBlock(store, "gca.0.a", d, cfg), store, cfg


class Thread(NamedTuple):
    """One thread's hidden states and mask, as the blocks take them."""

    hidden: Tensor
    mask: np.ndarray


def full_batch(rng, batch, length, d):
    mask = np.ones((batch, length), dtype=bool)
    return Thread(Tensor(rng.normal(size=(batch, length, d))), mask)


def ragged_batch(rng, batch, length, d, lengths):
    mask = np.arange(length) < np.asarray(lengths)[:, None]
    hidden = rng.normal(size=(batch, length, d)) * mask[:, :, None]
    return Thread(Tensor(hidden), mask)


def numpy_layernorm(x, gain, bias, eps=1e-8):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


class TestGcaConfig:
    def test_defaults_valid(self):
        cfg = GcaConfig()
        assert cfg.placements == () and cfg.gate_activation == "tanh"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(gate_activation="relu"),
            dict(kv_source="both"),
            dict(gate_hidden=0),
            dict(heads=0),
            dict(placements=(1, 0)),
            dict(placements=(0, 0)),
            dict(placements=(-1,)),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            GcaConfig(**kwargs)

    def test_placements_coerced_to_tuple(self):
        assert GcaConfig(placements=[0, 2]).placements == (0, 2)


class TestGateFfn:
    def test_zero_final_layer_sigmoid_gives_half(self):
        block, _, _ = make_block(gate_activation="sigmoid", heads=2)
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(2, 3, 8)))
        y = Tensor(rng.normal(size=(2, 3, 8)))
        np.testing.assert_allclose(block.gate_ffn(x, y).data, 0.5)

    def test_zero_final_layer_tanh_gives_zero(self):
        block, _, _ = make_block(gate_activation="tanh", heads=2)
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 3, 8)))
        y = Tensor(rng.normal(size=(2, 3, 8)))
        np.testing.assert_allclose(block.gate_ffn(x, y).data, 0.0)

    @pytest.mark.parametrize("activation", ["sigmoid", "tanh"])
    def test_matches_recomposition(self, activation):
        rng = np.random.default_rng(4)
        block, _, _ = make_block(gate_activation=activation, heads=2, gate_hidden=5)
        # Randomize the zero-initialized final layer so the oracle is informative.
        block.gate_w2.tensor.data = rng.normal(size=block.gate_w2.tensor.shape)
        block.gate_b2.tensor.data = rng.normal(size=block.gate_b2.tensor.shape)
        x = rng.normal(size=(2, 4, 8))
        y = rng.normal(size=(2, 4, 8))
        got = block.gate_ffn(Tensor(x), Tensor(y)).data
        stacked = np.concatenate([x, y], axis=-1)
        inner = np.maximum(stacked @ block.gate_w1.tensor.data + block.gate_b1.tensor.data, 0.0)
        raw = inner @ block.gate_w2.tensor.data + block.gate_b2.tensor.data
        want = 1.0 / (1.0 + np.exp(-raw)) if activation == "sigmoid" else np.tanh(raw)
        np.testing.assert_allclose(got, want, atol=1e-12)
        bound = (0.0, 1.0) if activation == "sigmoid" else (-1.0, 1.0)
        assert got.min() > bound[0] and got.max() < bound[1]

    def test_length_mismatch_rejected(self):
        block, _, _ = make_block(heads=2)
        with pytest.raises(DimensionError):
            block.gate_ffn(Tensor(np.zeros((2, 3, 8))), Tensor(np.zeros((2, 4, 8))))


class TestAlignLengths:
    def test_shorter_kv_zero_padded(self):
        rng = np.random.default_rng(6)
        q = full_batch(rng, 2, 5, 4)
        kv = full_batch(rng, 2, 2, 4)
        got = align_lengths(q.hidden, kv.hidden)
        assert got.shape == (2, 5, 4)
        np.testing.assert_array_equal(got.data[:, :2], kv.hidden.data)
        np.testing.assert_array_equal(got.data[:, 2:], np.zeros((2, 3, 4)))

    def test_longer_kv_cut_at_end(self):
        rng = np.random.default_rng(5)
        q = full_batch(rng, 2, 3, 4)
        kv = full_batch(rng, 2, 6, 4)
        got = align_lengths(q.hidden, kv.hidden)
        assert got.shape == (2, 3, 4)
        np.testing.assert_array_equal(got.data, kv.hidden.data[:, :3])

    def test_equal_length_returns_same_tensor(self):
        rng = np.random.default_rng(4)
        q = full_batch(rng, 2, 3, 4)
        kv = full_batch(rng, 2, 3, 4)
        assert align_lengths(q.hidden, kv.hidden) is kv.hidden

    def test_batch_mismatch(self):
        rng = np.random.default_rng(7)
        with pytest.raises(DimensionError):
            align_lengths(full_batch(rng, 2, 3, 4).hidden, full_batch(rng, 3, 3, 4).hidden)


def padded_gate_block(block, x_q, q_mask, x_kv, kv_mask):
    """The pad-both-then-narrow gate path, kept as the parity reference:
    both threads zero-padded to the longer length, the gate run over every
    row, then narrowed back to len_q."""
    crossed = block.ca(x_q, x_kv, kv_mask, causal=False)
    target = max(x_q.shape[1], x_kv.shape[1])
    gate = block.gate_ffn(T.pad_axis(x_q, 1, target), T.pad_axis(x_kv, 1, target))
    if gate.shape[1] != x_q.shape[1]:
        gate = T.narrow(gate, 1, 0, x_q.shape[1])
    merged = x_q + gate * crossed
    if block.cfg.use_layernorm:
        merged = T.layernorm(merged, block.ln_gain.tensor, block.ln_bias.tensor, eps=1e-8)
    return apply_mask(merged, q_mask)


class TestGateParity:
    """The gate over len_q rows against the pad-both-then-narrow path, bit for bit."""

    @pytest.mark.parametrize("use_layernorm", [True, False], ids=["ln", "no-ln"])
    @pytest.mark.parametrize("lq,lkv", [(3, 6), (6, 3), (4, 4)], ids=["kv-longer", "kv-shorter", "equal"])
    def test_output_and_leaf_gradients_bitwise(self, lq, lkv, use_layernorm):
        rng = np.random.default_rng(30)
        block, store, _ = make_block(
            seed=31, gate_activation="sigmoid", heads=2, gate_hidden=5, use_layernorm=use_layernorm
        )
        block.gate_w2.tensor.data = rng.normal(size=block.gate_w2.tensor.shape)
        block.gate_b2.tensor.data = rng.normal(size=block.gate_b2.tensor.shape)
        q = ragged_batch(rng, 3, lq, 8, lengths=[lq, 2, 1])
        kv = ragged_batch(rng, 3, lkv, 8, lengths=[lkv, 1, lkv - 1])
        weights = Tensor(rng.normal(size=(3, lq, 8)))

        def run(forward):
            for param in store.parameters():
                param.tensor.grad = None
            x_q = Tensor(q.hidden.data.copy(), requires_grad=True)
            x_kv = Tensor(kv.hidden.data.copy(), requires_grad=True)
            out = forward(x_q, q.mask, x_kv, kv.mask)
            (out * weights).sum().backward()
            grads = {"x_q": x_q.grad, "x_kv": x_kv.grad}
            grads.update({param.name: param.tensor.grad for param in store.parameters()})
            return out.data, grads

        got_out, got = run(block)
        want_out, want = run(lambda *args: padded_gate_block(block, *args))
        assert np.array_equal(got_out, want_out)
        assert got.keys() == want.keys()
        for name in want:
            assert want[name] is not None, name
            assert np.array_equal(got[name], want[name]), name

    def test_gate_reads_query_length_rows(self, monkeypatch):
        rng = np.random.default_rng(32)
        block, _, _ = make_block(heads=2)
        shapes = []
        gate_ffn = block.gate_ffn

        def spy(x_a, x_b):
            shapes.append((x_a.shape, x_b.shape))
            return gate_ffn(x_a, x_b)

        monkeypatch.setattr(block, "gate_ffn", spy)
        q = full_batch(rng, 2, 3, 8)
        kv = full_batch(rng, 2, 6, 8)
        block(q.hidden, q.mask, kv.hidden, kv.mask)
        assert shapes == [((2, 3, 8), (2, 3, 8))]


class TestZeroGateReduction:
    def test_with_layernorm_equals_layernorm_of_query(self):
        rng = np.random.default_rng(8)
        for trial in range(5):
            block, _, _ = make_block(seed=10 + trial, gate_activation="tanh", heads=2)
            q = full_batch(rng, 2, 4, 8)
            kv = full_batch(rng, 2, 6, 8)
            out = block(q.hidden, q.mask, kv.hidden, kv.mask).data
            want = T.layernorm(
                q.hidden, block.ln_gain.tensor, block.ln_bias.tensor, eps=1e-8
            ).data
            np.testing.assert_allclose(out, want, atol=1e-12)

    def test_without_layernorm_equals_query(self):
        rng = np.random.default_rng(9)
        block, _, _ = make_block(gate_activation="tanh", use_layernorm=False, heads=2)
        q = full_batch(rng, 3, 4, 8)
        kv = full_batch(rng, 3, 4, 8)
        out = block(q.hidden, q.mask, kv.hidden, kv.mask).data
        np.testing.assert_allclose(out, q.hidden.data, atol=1e-12)

    def test_unit_gate_equals_layernorm_of_sum(self):
        # Saturate the sigmoid gate via a huge bias: g -> 1 within 1e-12.
        rng = np.random.default_rng(10)
        block, _, _ = make_block(gate_activation="sigmoid", heads=2)
        block.gate_b2.tensor.data = np.full(8, 40.0)
        q = full_batch(rng, 2, 3, 8)
        kv = full_batch(rng, 2, 5, 8)
        crossed = block.ca(q.hidden, kv.hidden, kv.mask, causal=False).data
        want = numpy_layernorm(
            q.hidden.data + crossed, block.ln_gain.tensor.data, block.ln_bias.tensor.data
        )
        out = block(q.hidden, q.mask, kv.hidden, kv.mask).data
        np.testing.assert_allclose(out, want, atol=1e-10)


class TestComposition:
    @pytest.mark.parametrize("lq,lkv", [(4, 4), (3, 6), (6, 3)])
    def test_matches_step_by_step_oracle(self, lq, lkv):
        rng = np.random.default_rng(11)
        block, _, _ = make_block(seed=12, gate_activation="sigmoid", heads=2, gate_hidden=6)
        block.gate_w2.tensor.data = rng.normal(size=block.gate_w2.tensor.shape) * 0.5
        block.gate_b2.tensor.data = rng.normal(size=block.gate_b2.tensor.shape) * 0.5
        q = full_batch(rng, 2, lq, 8)
        kv = full_batch(rng, 2, lkv, 8)

        got = block(q.hidden, q.mask, kv.hidden, kv.mask).data

        # Independent composition: reference CA, aligned concat gate, residual, LN.
        crossed = reference_attention(
            q.hidden.data, kv.hidden.data,
            block.ca.wq.tensor.data, block.ca.wk.tensor.data,
            block.ca.wv.tensor.data, block.ca.wo.tensor.data,
            heads=2, kv_mask=kv.mask, causal=False,
        )
        longest = max(lq, lkv)
        qa = np.zeros((2, longest, 8));  qa[:, :lq] = q.hidden.data
        kb = np.zeros((2, longest, 8));  kb[:, :lkv] = kv.hidden.data
        stacked = np.concatenate([qa, kb], axis=-1)
        inner = np.maximum(stacked @ block.gate_w1.tensor.data + block.gate_b1.tensor.data, 0.0)
        gate = 1.0 / (1.0 + np.exp(-(inner @ block.gate_w2.tensor.data + block.gate_b2.tensor.data)))
        merged = q.hidden.data + gate[:, :lq] * crossed
        want = numpy_layernorm(merged, block.ln_gain.tensor.data, block.ln_bias.tensor.data)
        np.testing.assert_allclose(got, want, atol=1e-12)
        assert got.shape == (2, lq, 8)

    def test_masked_query_rows_stay_zero(self):
        rng = np.random.default_rng(12)
        block, _, _ = make_block(heads=2)
        block.gate_w2.tensor.data = rng.normal(size=block.gate_w2.tensor.shape)
        q = ragged_batch(rng, 3, 5, 8, lengths=[5, 2, 3])
        kv = ragged_batch(rng, 3, 4, 8, lengths=[4, 4, 1])
        out = block(q.hidden, q.mask, kv.hidden, kv.mask).data
        assert (out[~q.mask] == 0.0).all()

    def test_gradients_through_block(self):
        rng = np.random.default_rng(13)
        cfg = GcaConfig(gate_activation="tanh", heads=2, gate_hidden=3)
        store = ParameterStore(seed=14)
        block = GcaBlock(store, "g", 4, cfg)
        block.gate_w2.tensor.data = rng.normal(size=(3, 4)) * 0.5
        q = full_batch(rng, 2, 3, 4)
        kv = full_batch(rng, 2, 4, 4)
        q_hidden = Tensor(q.hidden.data.copy(), requires_grad=True)
        kv_hidden = Tensor(kv.hidden.data.copy(), requires_grad=True)
        weights = Tensor(rng.normal(size=(2, 3, 4)))
        leaves = {"q": q_hidden, "kv": kv_hidden}
        leaves.update({p.name: p.tensor for p in store.parameters()})

        def loss():
            out = block(q_hidden, q.mask, kv_hidden, kv.mask)
            return (out * weights).sum()

        check_gradients(loss, leaves)


class TestProbes:
    def test_probe_starts_empty(self):
        probe = GcaProbe()
        assert probe.cos_xxprime == 0.0 and probe.cos_xy == 0.0 and probe.batch_count == 0

    def test_observe_updates_both_channels(self):
        rng = np.random.default_rng(14)
        probe = GcaProbe()
        x = rng.normal(size=(2, 3, 4))
        probe.observe(x, x.copy(), np.ones((2, 3), bool), x.copy(), np.ones((2, 3), bool))
        assert probe.cos_xxprime == pytest.approx(1.0, abs=1e-12)
        assert probe.cos_xy == pytest.approx(1.0, abs=1e-12)
        assert probe.batch_count == 1

    def test_xy_uses_shared_prefix_and_joint_mask(self):
        rng = np.random.default_rng(15)
        probe = GcaProbe()
        q = rng.normal(size=(1, 4, 3))
        kv = rng.normal(size=(1, 2, 3))
        q_mask = np.array([[True, True, True, False]])
        kv_mask = np.array([[True, False]])
        probe.observe(q, q.copy(), q_mask, kv, kv_mask)
        from gcalab.metrics import masked_abs_cosine

        want_total, want_count = masked_abs_cosine(
            q[:, :2], kv, q_mask[:, :2] & kv_mask
        )
        assert want_count == 1
        assert probe.cos_xy == pytest.approx(want_total / want_count, abs=1e-12)

    def test_weighted_average_across_batches(self):
        probe = GcaProbe()
        # One position at cosine 1, then three positions at cosine 0.
        ones = np.ones((1, 1, 2))
        probe.observe(ones, ones.copy(), np.ones((1, 1), bool))
        x = np.zeros((1, 3, 2));  x[0, :, 0] = 1.0
        y = np.zeros((1, 3, 2));  y[0, :, 1] = 1.0
        probe.observe(x, y, np.ones((1, 3), bool))
        assert probe.cos_xxprime == pytest.approx(0.25, abs=1e-12)
        assert probe.batch_count == 2

    def test_probe_does_not_alter_gradients(self):
        rng = np.random.default_rng(16)
        block, store, _ = make_block(seed=17, heads=2)
        block.gate_w2.tensor.data = rng.normal(size=block.gate_w2.tensor.shape)
        q = full_batch(rng, 2, 3, 8)
        kv = full_batch(rng, 2, 3, 8)
        weights = Tensor(rng.normal(size=(2, 3, 8)))

        def run(probe):
            for p in store.parameters():
                p.tensor.grad = None
            (block(q.hidden, q.mask, kv.hidden, kv.mask, probe=probe) * weights).sum().backward()
            return {p.name: p.tensor.grad.copy() for p in store.parameters() if p.tensor.grad is not None}

        bare = run(None)
        probe = GcaProbe()
        probed = run(probe)
        assert probe.batch_count == 1 and 0.0 <= probe.cos_xxprime <= 1.0
        assert bare.keys() == probed.keys()
        for name in bare:
            np.testing.assert_array_equal(bare[name], probed[name])

    def test_probe_rejects_unknown_channel(self):
        with pytest.raises(ContractError):
            GcaProbe().accumulate("zz", 1.0, 1)


class TestParameterArithmetic:
    @pytest.mark.parametrize("use_layernorm,gate_hidden", [(True, None), (False, None), (True, 5)])
    def test_block_size_matches_store(self, use_layernorm, gate_hidden):
        cfg = GcaConfig(heads=2, use_layernorm=use_layernorm, gate_hidden=gate_hidden)
        store = ParameterStore(seed=0)
        GcaBlock(store, "g", 8, cfg)
        gate = gate_hidden or 8
        layernorm = 2 * 8 if use_layernorm else 0
        assert store.total_size() == 4 * 8 * 8 + (2 * 8 * gate + gate) + (gate * 8 + 8) + layernorm

    def test_block_size_closed_form(self):
        # d=8, gate width 8: 4*64 + (16*8 + 8) + (8*8 + 8) + 16 = 480.
        cfg = GcaConfig(heads=2)
        store = ParameterStore(seed=0)
        GcaBlock(store, "g", 8, cfg)
        assert store.total_size() == 480
