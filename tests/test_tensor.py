"""Engine tests: forward values, gradients vs finite differences, Adam, store."""

from __future__ import annotations

import ctypes
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import op_suite
from fdcheck import check_gradients, numerical_gradient, relative_error
from gcalab import tensor as T
from gcalab.attention import apply_mask, visibility
from gcalab.errors import (
    ContractError,
    DegenerateSliceError,
    DimensionError,
    IndexRangeError,
    NanGradientError,
)
from gcalab.optim import Adam
from gcalab.tensor import Parameter, ParameterStore, Tensor


class TestForwardValues:
    def test_elementwise_matches_numpy(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(4,)))
        np.testing.assert_allclose((a + b).data, a.data + b.data)
        np.testing.assert_allclose((a * b).data, a.data * b.data)

    def test_activation_fixed_points(self):
        x = Tensor([0.0])
        assert T.sigmoid(x).data[0] == pytest.approx(0.5, abs=1e-15)
        assert T.tanh(x).data[0] == pytest.approx(0.0, abs=1e-15)
        assert T.relu(x).data[0] == 0.0
        assert T.softplus(x).data[0] == pytest.approx(np.log(2.0), abs=1e-15)

    def test_sigmoid_softplus_stable_in_tails(self):
        x = Tensor([-800.0, 800.0])
        s = T.sigmoid(x).data
        p = T.softplus(x).data
        assert np.isfinite(s).all() and np.isfinite(p).all()
        assert s[0] == pytest.approx(0.0, abs=1e-300)
        assert s[1] == pytest.approx(1.0, abs=1e-15)
        assert p[1] == pytest.approx(800.0, abs=1e-9)

    def test_matmul_matches_numpy(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(2, 3, 4)))
        b = Tensor(rng.normal(size=(4, 5)))
        np.testing.assert_allclose(T.matmul(a, b).data, a.data @ b.data)

    def test_matmul_shape_errors(self):
        with pytest.raises(DimensionError):
            T.matmul(Tensor(np.ones((3, 4))), Tensor(np.ones((3, 4))))
        with pytest.raises(DimensionError):
            T.matmul(Tensor(np.ones(4)), Tensor(np.ones((4, 2))))

    def test_float64_contiguous(self):
        t = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3)[:, ::-1])
        assert t.data.dtype == np.float64
        assert t.data.flags["C_CONTIGUOUS"]


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(4, 7)))
        out = T.softmax_lastdim(x).data
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(4), atol=1e-12)

    def test_masked_positions_exactly_zero(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(3, 5)))
        mask = np.array([[1, 0, 1, 1, 0], [1, 1, 1, 1, 1], [0, 0, 0, 1, 0]], dtype=bool)
        out = T.softmax_lastdim(x, mask).data
        assert (out[~mask] == 0.0).all()
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(3), atol=1e-12)

    def test_mask_invariant_to_masked_values(self):
        # Entries under the mask must not influence the distribution at all.
        rng = np.random.default_rng(4)
        base = rng.normal(size=(2, 6))
        mask = np.array([[1, 1, 0, 1, 0, 1], [0, 1, 1, 1, 1, 0]], dtype=bool)
        poked = base.copy()
        poked[~mask] = 1e6
        a = T.softmax_lastdim(Tensor(base), mask).data
        b = T.softmax_lastdim(Tensor(poked), mask).data
        np.testing.assert_allclose(a, b, atol=1e-15)

    def test_masked_exp_bitwise_equal_to_exp_over_neg_inf(self):
        # Ragged causal attention scores: lengths 0 to 32 (a length-0 sequence
        # is patched to see key 0), so whole rows and most lanes are masked.
        rng = np.random.default_rng(5)
        batch, heads, length = 16, 4, 32
        lengths = np.concatenate([[0, 0, 1, length], rng.integers(0, length + 1, size=batch - 4)])
        kv_mask = np.arange(length)[None, :] < lengths[:, None]
        mask = visibility(kv_mask, length, causal=True).visible
        x = rng.normal(scale=3.0, size=(batch, heads, length, length))
        restricted = np.where(mask, x, -np.inf)
        expected = np.exp(restricted - restricted.max(axis=-1, keepdims=True))
        expected /= expected.sum(axis=-1, keepdims=True)
        assert (~mask).mean() > 0.5
        assert np.array_equal(T._softmax(x, mask), expected)

    def test_fully_masked_row_raises(self):
        x = Tensor(np.zeros((2, 4)))
        mask = np.array([[1, 1, 0, 0], [0, 0, 0, 0]], dtype=bool)
        with pytest.raises(DegenerateSliceError):
            T.softmax_lastdim(x, mask)

    def test_row_of_only_minus_inf_raises(self):
        x = Tensor(np.array([[0.0, 1.0], [-np.inf, -np.inf]]))
        with pytest.raises(DegenerateSliceError):
            T.softmax_lastdim(x)

    def test_extreme_logits_finite(self):
        x = Tensor(np.array([[1e4, -1e4, 0.0]]))
        out = T.softmax_lastdim(x).data
        assert np.isfinite(out).all()
        assert out[0, 0] == pytest.approx(1.0)


class TestLayernorm:
    def test_normalizes_last_axis(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(3.0, 2.5, size=(4, 16)))
        gain = Tensor(np.ones(16))
        bias = Tensor(np.zeros(16))
        out = T.layernorm(x, gain, bias, eps=1e-12).data
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros(4), atol=1e-6)
        np.testing.assert_allclose(out.var(axis=-1), np.ones(4), atol=1e-6)

    def test_affine_applied_after_normalization(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(2, 8)))
        gain = Tensor(np.full(8, 2.0))
        bias = Tensor(np.full(8, -1.0))
        plain = T.layernorm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)), eps=1e-12).data
        out = T.layernorm(x, gain, bias, eps=1e-12).data
        np.testing.assert_allclose(out, 2.0 * plain - 1.0, atol=1e-12)

    def test_feature_axis_too_small(self):
        with pytest.raises(DimensionError):
            T.layernorm(Tensor(np.ones((3, 1))), Tensor(np.ones(1)), Tensor(np.zeros(1)))


def softmax_reference(x, mask):
    """The masked softmax as it was before its in-place rewrite: a row-wise
    peak, then fresh arrays for the shift, the exponent and the quotient."""
    restricted = x if mask is None else np.where(mask, x, -np.inf)
    peak = restricted.max(axis=-1, keepdims=True)
    shifted = restricted - peak
    weights = np.exp(shifted) if mask is None else np.exp(shifted, out=np.zeros(shifted.shape), where=mask)
    return weights / weights.sum(axis=-1, keepdims=True)


def layernorm_reference(x, gain, bias, g, eps=1e-8):
    """Layernorm's forward and backward as they were, built on ``np.mean``."""
    centred = x - x.mean(axis=-1, keepdims=True)
    var = (centred * centred).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centred * inv
    out = xhat * gain + bias
    gx = g * gain
    term = gx - gx.mean(axis=-1, keepdims=True) - xhat * (gx * xhat).mean(axis=-1, keepdims=True)
    lead = tuple(range(g.ndim - 1))
    return out, term * inv, (g * xhat).sum(axis=lead), g.sum(axis=lead)


class TestEngineParity:
    """The engine's fast paths against the formulas they replaced: equal
    bits, not a tolerance. Sums, ``exp`` and matmul layouts set the bits, so
    only the order-free parts (the peak, the temporaries) may change."""

    @staticmethod
    def _scores(width, case, seed):
        rng = np.random.default_rng(seed)
        batch, heads = 9, 3
        if case == "causal-ragged":
            # Lengths 0 to width; a length-0 sequence is patched to see key 0.
            lengths = np.concatenate([[0, 1, width], rng.integers(0, width + 1, size=batch - 3)])
            kv_mask = np.arange(width)[None, :] < lengths[:, None]
            mask, len_q = visibility(kv_mask, width, causal=True).visible, width
        elif case == "cross-padded-row":
            kv_mask = rng.random((batch, width)) < 0.6
            kv_mask[2] = False
            mask, len_q = visibility(kv_mask, 4, causal=False).visible, 4
        else:
            mask, len_q = None, 7
        x = rng.normal(scale=3.0, size=(batch, heads, len_q, width))
        return x, mask

    @pytest.mark.parametrize("case", ["causal-ragged", "cross-padded-row", "unmasked"])
    @pytest.mark.parametrize("width", [5, 10, 17, 33])
    def test_softmax_bitwise_equal_to_reference(self, width, case):
        x, mask = self._scores(width, case, seed=width)
        before = x.copy()
        leaf = Tensor(x, requires_grad=True)
        out = T.softmax_lastdim(leaf, mask)
        assert np.array_equal(leaf.data, before)
        expected = softmax_reference(before, mask)
        assert np.array_equal(out.data, expected)
        g = np.random.default_rng(width + 1).normal(size=x.shape)
        T.mul(out, Tensor(g)).sum().backward()
        inner = (g * expected).sum(axis=-1, keepdims=True)
        assert np.array_equal(leaf.grad, (g - inner) * expected)
        assert np.array_equal(leaf.data, before)

    @pytest.mark.parametrize("shape", [(3, 5), (4, 6, 32), (2, 3, 33)])
    def test_layernorm_bitwise_equal_to_reference(self, shape):
        rng = np.random.default_rng(shape[-1])
        d = shape[-1]
        x = Tensor(rng.normal(loc=0.3, size=shape), requires_grad=True)
        gain = Tensor(rng.uniform(0.5, 1.5, size=d), requires_grad=True)
        bias = Tensor(rng.uniform(-0.5, 0.5, size=d), requires_grad=True)
        g = rng.normal(size=shape)
        out = T.layernorm(x, gain, bias)
        T.mul(out, Tensor(g)).sum().backward()
        ref_out, ref_x, ref_gain, ref_bias = layernorm_reference(x.data, gain.data, bias.data, g)
        assert np.array_equal(out.data, ref_out)
        assert np.array_equal(x.grad, ref_x)
        assert np.array_equal(gain.grad, ref_gain)
        assert np.array_equal(bias.grad, ref_bias)


class TestIndexingOps:
    def test_embedding_gather_rows(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        ids = np.array([[0, 3], [2, 2]])
        out = T.embedding_gather(table, ids).data
        np.testing.assert_allclose(out, table.data[ids])

    def test_embedding_out_of_range(self):
        table = Tensor(np.zeros((4, 3)))
        with pytest.raises(IndexRangeError):
            T.embedding_gather(table, np.array([4]))
        with pytest.raises(IndexRangeError):
            T.embedding_gather(table, np.array([-1]))

    def test_embedding_repeated_ids_accumulate_grad(self):
        table = Tensor(np.zeros((3, 2)), requires_grad=True)
        ids = np.array([1, 1, 1])
        T.embedding_gather(table, ids).sum().backward()
        np.testing.assert_allclose(table.grad[1], [3.0, 3.0])
        np.testing.assert_allclose(table.grad[0], [0.0, 0.0])

    def test_select_positions(self):
        x = Tensor(np.arange(24.0).reshape(2, 3, 4))
        out = T.select_positions(x, np.array([2, 0])).data
        np.testing.assert_allclose(out, np.stack([x.data[0, 2], x.data[1, 0]]))

    def test_narrow_and_pad_roundtrip(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(2, 5, 3)))
        padded = T.pad_axis(x, 1, 8)
        assert padded.data.shape == (2, 8, 3)
        assert (padded.data[:, 5:] == 0.0).all()
        back = T.narrow(padded, 1, 0, 5)
        np.testing.assert_allclose(back.data, x.data)

    def test_concat_leading_mismatch(self):
        with pytest.raises(DimensionError):
            T.concat_lastdim(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 2, 4))))


@pytest.mark.parametrize("case", op_suite.CASES, ids=[c[0] for c in op_suite.CASES])
def test_gradients_match_finite_differences(case):
    op_suite.run_case(case, seed=11)


def test_attention_family_matches_finite_differences():
    sampler = dict(op_suite.FAMILIES)["attention"]
    assert op_suite.run_family("attention", sampler, samples=20, seed=11) < op_suite.COMPOSITE_TOL


def test_attention_rows_family_matches_finite_differences():
    sampler = dict(op_suite.FAMILIES)["attention_rows"]
    assert op_suite.run_family("attention_rows", sampler, samples=20, seed=11) < op_suite.COMPOSITE_TOL


class TestFusedAttention:
    def _inputs(self, batch=2, heads=2, len_q=3, len_k=4, d=4):
        rng = np.random.default_rng(12)
        q, k, v = (
            Tensor(rng.normal(size=(batch, length, d)), requires_grad=True)
            for length in (len_q, len_k, len_k)
        )
        visible = np.ones((batch, 1, len_q, len_k), dtype=bool)
        kept = rng.random((batch, heads, len_q, len_k)) >= 0.5
        return q, k, v, visible, kept

    @staticmethod
    def _held(fn) -> list[tuple[tuple[int, ...], str]]:
        """(shape, dtype kind) of every array ``fn``'s closure reaches,
        through the closures of the functions and the tuples it holds."""
        found, pending, seen = [], [fn], set()
        while pending:
            value = pending.pop()
            if id(value) in seen:
                continue
            seen.add(id(value))
            if isinstance(value, np.ndarray):
                found.append((value.shape, value.dtype.kind))
            elif isinstance(value, tuple):
                pending.extend(value)
            elif callable(value) and getattr(value, "__closure__", None):
                pending.extend(cell.cell_contents for cell in value.__closure__)
        return sorted(found)

    def test_node_keeps_only_what_its_backward_reads(self):
        # The split q, kᵀ and v, the softmax output and the bool draw: no
        # score, float keep mask, dropped-weight or context arrays. With
        # rows, the picked rows of the softmax output and of the draw and
        # the pick itself, not the [batch, heads, len_q, len_k] blocks.
        q, k, v, visible, kept = self._inputs()
        split = [
            ((2, 2, 3, 2), "f"),  # q split
            ((2, 2, 2, 4), "f"),  # kᵀ
            ((2, 2, 4, 2), "f"),  # v split
        ]
        out = T.attention(q, k, v, 2, visible, 0.5, kept, 0.5)
        assert self._held(out._backward) == sorted(split + [
            ((2, 2, 3, 4), "f"),  # softmax output
            ((2, 2, 3, 4), "b"),  # dropout draw
        ])
        out = T.attention(q, k, v, 2, visible, 0.5, kept, 0.5, rows=np.array([2, 0]))
        assert self._held(out._backward) == sorted(split + [
            ((2, 2, 4), "f"),  # softmax rows
            ((2, 2, 4), "b"),  # dropout draw rows
            ((2,), "i"),  # batch index of the pick
            ((2,), "i"),  # picked rows
        ])

    @pytest.mark.parametrize("p", [0.0, 0.5])
    def test_rows_are_the_full_ops_rows_bitwise(self, p):
        # Picked context rows and every gradient a loss on them sends are
        # the full op's bits; the other rows' context is zero.
        rows = np.array([2, 0])
        outcomes = []
        for picked in (None, rows):
            q, k, v, visible, kept = self._inputs()
            visible = visible.copy()
            visible[0, 0, :, 3] = False
            out = T.attention(q, k, v, 2, visible, 0.5, kept if p else None, p, picked)
            read = T.select_positions(out, rows)
            (read * Tensor(np.random.default_rng(3).normal(size=read.shape))).sum().backward()
            outcomes.append((out.data, read.data, q.grad, k.grad, v.grad))
        full, narrow = outcomes
        for want, got in zip(full[1:], narrow[1:]):
            assert got.tobytes() == want.tobytes()
        others = np.ones(narrow[0].shape[:2], dtype=bool)
        others[np.arange(2), rows] = False
        assert not narrow[0][others].any()

    def test_rows_shape_and_range_checked(self):
        q, k, v, visible, _ = self._inputs()
        with pytest.raises(DimensionError, match="rows"):
            T.attention(q, k, v, 2, visible, 0.5, rows=np.array([0]))
        with pytest.raises(IndexRangeError, match="rows"):
            T.attention(q, k, v, 2, visible, 0.5, rows=np.array([0, 3]))

    def test_row_that_sees_no_key_raises(self):
        q, k, v, visible, _ = self._inputs()
        visible = visible.copy()
        visible[1, 0, 2] = False
        with pytest.raises(DegenerateSliceError):
            T.attention(q, k, v, 2, visible, 0.5)

    @pytest.mark.parametrize("bad", ["visible", "heads", "kv"])
    def test_shape_errors(self, bad):
        q, k, v, visible, _ = self._inputs()
        heads = 2
        if bad == "visible":
            visible = visible[:, :, :, :3]
        elif bad == "heads":
            heads = 3
        else:
            v = Tensor(np.zeros((2, 5, 4)))
        with pytest.raises(DimensionError):
            T.attention(q, k, v, heads, visible, 0.5)


class TestBackwardSemantics:
    def test_branching_graph_exact(self):
        # z = x*y + x  =>  dz/dx = y + 1, dz/dy = x, exactly.
        x = Tensor([2.0, -3.0], requires_grad=True)
        y = Tensor([5.0, 7.0], requires_grad=True)
        (x * y + x).sum().backward()
        np.testing.assert_array_equal(x.grad, [6.0, 8.0])
        np.testing.assert_array_equal(y.grad, [2.0, -3.0])

    def test_second_backward_raises_and_changes_no_grad(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        loss = T.sigmoid(T.matmul(x, w)).sum()
        loss.backward()
        gx, gw = x.grad.copy(), w.grad.copy()
        with pytest.raises(ContractError, match="already consumed"):
            loss.backward()
        np.testing.assert_array_equal(x.grad, gx)
        np.testing.assert_array_equal(w.grad, gw)

    def test_backward_through_a_consumed_shared_subgraph_raises(self):
        # l2's own nodes are fresh; it meets l1's consumed nodes below them.
        rng = np.random.default_rng(9)
        x, w, z = (Tensor(rng.normal(size=shape), requires_grad=True) for shape in ((3, 4), (4, 2), (3, 2)))
        shared = T.tanh(T.matmul(x, w))
        l1 = T.sigmoid(shared).sum()
        l2 = (shared * z).sum()
        l1.backward()
        after_l1 = [None if leaf.grad is None else leaf.grad.copy() for leaf in (x, w, z)]
        with pytest.raises(ContractError, match="already consumed"):
            l2.backward()
        for leaf, grad in zip((x, w, z), after_l1):
            np.testing.assert_array_equal(leaf.grad, grad)
        assert z.grad is None

    def test_leaf_root_accepts_repeated_calls(self):
        x = Tensor(2.0, requires_grad=True)
        x.backward()
        x.backward()
        assert x.grad == 2.0

    def test_backward_frees_saved_arrays_of_a_held_loss(self):
        # The matmul saves ``hidden``'s array for w2's gradient; the loss
        # still roots the graph, yet the array dies with the walk.
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        w2 = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        hidden = T.tanh(x)
        loss = T.matmul(hidden, w2).sum()
        saved = weakref.ref(hidden.data)
        del hidden
        assert saved() is not None
        loss.backward()
        assert saved() is None
        assert x.grad is not None and w2.grad is not None

    def test_reused_node_accumulates_once_per_call(self):
        x = Tensor([1.5], requires_grad=True)
        y = x * x  # dy/dx = 2x via two paths through the same parent
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [3.0])

    def test_non_scalar_root_rejected(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ContractError):
            (x * 2.0).backward()

    def test_requires_grad_is_fixed_at_construction(self):
        # A flag set after the fact would silently give no gradient.
        x = Tensor(np.ones(3))
        with pytest.raises(AttributeError):
            x.requires_grad = True
        leaf = Tensor(np.ones(3), requires_grad=True)
        assert leaf.requires_grad and not (leaf * 2.0).requires_grad

    def test_grad_not_tracked_without_requires_grad(self):
        x = Tensor(np.ones(3))
        y = Tensor(np.ones(3), requires_grad=True)
        (x * y).sum().backward()
        assert x.grad is None
        np.testing.assert_allclose(y.grad, np.ones(3))


class TestNoGrad:
    @staticmethod
    def graph_of(x):
        return T.softmax_lastdim(T.matmul(x, x) + 1.0)

    def test_builds_no_graph_and_keeps_values(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 3)), requires_grad=True)
        tracked = self.graph_of(x)
        with T.no_grad():
            plain = self.graph_of(x)
        assert tracked._backward is not None and tracked._node.parents
        assert plain._backward is None and plain._node is None
        np.testing.assert_array_equal(plain.data, tracked.data)

    def test_nesting_restores_outer_state(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with T.no_grad():
            with T.no_grad():
                assert (x * 2.0)._backward is None
            assert (x * 2.0)._backward is None
        assert (x * 2.0)._backward is not None

    def test_state_restored_after_exception(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(RuntimeError):
            with T.no_grad():
                raise RuntimeError("inside")
        loss = (x * x).sum()
        loss.backward()
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])


class TestFreedIntermediates:
    """A node keeps what its backward reads, never its output array: an
    intermediate the forward drops is freed at once, and backward still gives
    the gradients of a graph whose intermediates were all held."""

    @staticmethod
    def leaves(*shapes, seed=13):
        rng = np.random.default_rng(seed)
        return [Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes]

    def check(self, build, shapes):
        """``build(*leaves)`` returns the loss and the intermediates no
        backward reads."""
        held = self.leaves(*shapes)
        loss, intermediates = build(*held)
        loss.backward()
        expected = [leaf.grad for leaf in held]

        fresh = self.leaves(*shapes)
        loss, intermediates = build(*fresh)
        arrays = [weakref.ref(t.data) for t in intermediates]
        del intermediates
        assert [ref() is None for ref in arrays] == [True] * len(arrays)
        loss.backward()
        for leaf, grad in zip(fresh, expected):
            np.testing.assert_array_equal(leaf.grad, grad)

    def test_matmul_bias_relu_chain(self):
        def build(x, w, b, w2):
            product = T.matmul(x, w)
            biased = product + b
            hidden = T.relu(biased)
            return T.matmul(hidden, w2).sum(), [product, biased]

        self.check(build, [(5, 4), (4, 3), (3,), (3, 2)])

    def test_inputs_of_apply_mask_and_dropout(self):
        mask = np.array([[True, True, False], [True, False, False]])

        def build(x, w):
            projected = T.matmul(x, w)
            shifted = apply_mask(projected, mask) + 0.25
            dropped = T.dropout(shifted, 0.5, np.random.default_rng(4))
            return T.sigmoid(dropped).sum(), [projected, shifted]

        self.check(build, [(2, 3, 4), (4, 4)])

    def test_qkv_projections_feeding_attention(self):
        visible = np.ones((2, 1, 3, 3), dtype=bool)

        def build(x, wq, wk, wv):
            q, k, v = T.matmul(x, wq), T.matmul(x, wk), T.matmul(x, wv)
            context = T.attention(q, k, v, 2, visible, 0.5)
            return T.tanh(context).sum(), [q, k, v]

        self.check(build, [(2, 3, 4), (4, 4), (4, 4), (4, 4)])

    def test_mul_by_a_constant_keeps_the_constant(self):
        x = T.tanh(Tensor(np.ones((2, 3)), requires_grad=True))
        constant = Tensor(np.full((2, 3), 0.5))
        out = T.mul(x, constant)
        held = [cell.cell_contents for cell in out._backward.__closure__]
        arrays = [value for value in held if isinstance(value, np.ndarray)]
        assert len(arrays) == 1 and arrays[0] is constant.data
        assert not any(value is x.data for value in held)


    def test_dropout_keeps_its_bool_draw(self):
        x = T.tanh(Tensor(np.ones((4, 5)), requires_grad=True))
        out = T.dropout(x, 0.25, np.random.default_rng(3))
        held = [cell.cell_contents for cell in out._backward.__closure__]
        arrays = [value for value in held if isinstance(value, np.ndarray)]
        assert [(a.shape, a.dtype.kind) for a in arrays] == [((4, 5), "b")]


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        assert T.dropout(x, 0.5, None) is x
        assert T.dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_train_mode_scales_survivors(self):
        rng = np.random.default_rng(9)
        x = Tensor(np.ones((100, 100)))
        out = T.dropout(x, 0.25, rng).data
        kept = out != 0.0
        np.testing.assert_allclose(out[kept], 1.0 / 0.75)
        assert abs(kept.mean() - 0.75) < 0.02

    def test_equals_the_mul_by_its_keep_mask_bit_for_bit(self):
        rng = np.random.default_rng(21)
        x_data, g = rng.normal(size=(3, 4, 5)), rng.normal(size=(3, 4, 5))
        results = []
        for fused in (True, False):
            x = Tensor(x_data, requires_grad=True)
            draw = np.random.default_rng(5)
            if fused:
                out = T.dropout(x, 0.3, draw)
            else:
                out = T.mul(x, Tensor(T.dropout_draw(x.shape, 0.3, draw) / (1.0 - 0.3)))
            T.mul(out, Tensor(g)).sum().backward()
            results.append((out.data, x.grad))
        (fused_out, fused_grad), (chain_out, chain_grad) = results
        assert fused_out.tobytes() == chain_out.tobytes()
        assert fused_grad.tobytes() == chain_grad.tobytes()


def adam_reference(params, grads_per_step, lr=1e-2, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam as the per-parameter loop it was, over ``{name: data}``. Returns
    the data after each step."""
    data = {name: values.copy() for name, values in params.items()}
    m = {name: np.zeros_like(values) for name, values in params.items()}
    v = {name: np.zeros_like(values) for name, values in params.items()}
    history = []
    for t, grads in enumerate(grads_per_step, start=1):
        for name, g in grads.items():
            m[name] = beta1 * m[name] + (1.0 - beta1) * g
            v[name] = beta2 * v[name] + (1.0 - beta2) * g * g
            m_hat = m[name] / (1.0 - beta1**t)
            v_hat = v[name] / (1.0 - beta2**t)
            data[name] = data[name] - lr * m_hat / (np.sqrt(v_hat) + eps)
        history.append({name: values.copy() for name, values in data.items()})
    return history


class TestAdam:
    def test_single_step_matches_closed_form(self):
        p = Parameter("w", Tensor(np.array([1.0, -2.0]), requires_grad=True))
        opt = Adam([p], lr=1e-3)
        p.tensor.grad = np.array([0.5, -0.25])
        opt.step()
        # After one step m_hat = g and v_hat = g^2, so the update is
        # lr * g / (|g| + eps) = lr * sign(g) up to eps rounding.
        expected = np.array([1.0, -2.0]) - 1e-3 * np.array([0.5, -0.25]) / (
            np.array([0.5, 0.25]) + 1e-8
        )
        np.testing.assert_allclose(p.tensor.data, expected, rtol=0, atol=1e-15)

    def test_three_steps_match_reference_loop(self):
        rng = np.random.default_rng(10)
        init = rng.normal(size=(4,))
        grads = [rng.normal(size=(4,)) for _ in range(3)]

        p = Parameter("w", Tensor(init.copy(), requires_grad=True))
        opt = Adam([p], lr=0.01)
        for g in grads:
            p.tensor.grad = g.copy()
            opt.step()

        # Independent reference implementation of the same update rule.
        theta, m, v = init.copy(), np.zeros(4), np.zeros(4)
        for t, g in enumerate(grads, start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            theta -= 0.01 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        np.testing.assert_allclose(p.tensor.data, theta, atol=1e-15)

    def test_zero_gradient_leaves_parameter_unchanged(self):
        p = Parameter("w", Tensor(np.array([3.0]), requires_grad=True))
        opt = Adam([p])
        p.tensor.grad = np.zeros(1)
        opt.step()
        np.testing.assert_array_equal(p.tensor.data, [3.0])

    def test_missing_gradient_raises_before_any_update(self):
        params = [Parameter(f"p{i}", Tensor(np.full(2, i + 1.0), requires_grad=True)) for i in range(3)]
        opt = Adam(params, lr=0.1)
        for p in params:
            p.tensor.grad = np.full(2, 0.5)
        opt.step()
        before = [p.tensor.data.copy() for p in params]
        moments = (opt._m.copy(), opt._v.copy())
        params[0].tensor.grad = np.full(2, 0.5)
        params[1].tensor.grad = None
        with pytest.raises(ContractError, match="p1 at step 2"):
            opt.step()
        assert opt.step_count == 1
        for p, values in zip(params, before):
            np.testing.assert_array_equal(p.tensor.data, values)
        np.testing.assert_array_equal(opt._m, moments[0])
        np.testing.assert_array_equal(opt._v, moments[1])

    def test_nan_gradient_raises_with_name(self):
        p = Parameter("encoder.w1", Tensor(np.array([1.0]), requires_grad=True))
        opt = Adam([p])
        p.tensor.grad = np.array([np.nan])
        with pytest.raises(NanGradientError, match="encoder.w1"):
            opt.step()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_gradient_raises_before_any_update(self, bad):
        good = Parameter("encoder.w0", Tensor(np.array([1.0]), requires_grad=True))
        p = Parameter("encoder.w1", Tensor(np.array([1.0, 2.0]), requires_grad=True))
        opt = Adam([good, p])
        good.tensor.grad = np.array([0.5])
        p.tensor.grad = np.array([0.5, bad])
        with pytest.raises(NanGradientError, match="encoder.w1"):
            opt.step()
        np.testing.assert_array_equal(good.tensor.data, [1.0])
        np.testing.assert_array_equal(p.tensor.data, [1.0, 2.0])
        assert opt.step_count == 0

    def test_frozen_parameters_never_updated(self):
        frozen = Parameter("emb", Tensor(np.array([1.0]), requires_grad=False))
        opt = Adam([frozen])
        assert opt.params == []
        opt.step()
        assert opt.step_count == 1
        np.testing.assert_array_equal(frozen.tensor.data, [1.0])

    def test_flat_step_bitwise_equal_to_reference_loop(self):
        # Mixed shapes, a 0-d scalar among them.
        rng = np.random.default_rng(11)
        shapes = {"emb": (6, 4), "gain": (4,), "cube": (3, 2, 2), "scalar": (), "w": (4, 5)}
        # Small parameters keep an update's last bits in the result.
        init = {name: rng.normal(scale=1e-3, size=shape) for name, shape in shapes.items()}
        grads_per_step = [
            {name: rng.normal(scale=10.0 ** (t - 2), size=shape) for name, shape in shapes.items()}
            for t in range(5)
        ]
        params = [Parameter(name, Tensor(values.copy(), requires_grad=True)) for name, values in init.items()]
        opt = Adam(params, lr=1e-2)
        for t, (grads, expected) in enumerate(zip(grads_per_step, adam_reference(init, grads_per_step))):
            for p in params:
                p.tensor.grad = grads[p.name].copy()
            opt.step()
            for p in params:
                assert np.array_equal(p.tensor.data, expected[p.name]), (t, p.name)
                assert p.tensor.data.shape == shapes[p.name]

    def test_non_finite_middle_gradient_moves_nothing(self):
        params = [
            Parameter(f"p{i}", Tensor(np.arange(1.0, 4.0) * (i + 1), requires_grad=True)) for i in range(3)
        ]
        before = [p.tensor.data.copy() for p in params]
        opt = Adam(params, lr=0.1)
        for p in params:
            p.tensor.grad = np.full(3, 0.5)
        params[1].tensor.grad[1] = np.nan
        with pytest.raises(NanGradientError, match="p1 at step 1"):
            opt.step()
        assert opt.step_count == 0
        for p, values in zip(params, before):
            np.testing.assert_array_equal(p.tensor.data, values)
        # The moments did not move either: a finite step now matches a first step.
        params[1].tensor.grad = np.full(3, 0.5)
        opt.step()
        init = {p.name: values for p, values in zip(params, before)}
        (expected,) = adam_reference(init, [{name: np.full(3, 0.5) for name in init}], lr=0.1)
        for p in params:
            assert np.array_equal(p.tensor.data, expected[p.name])


class TestParameterStore:
    def test_duplicate_name_rejected(self):
        store = ParameterStore(seed=0)
        store.normal("w", (2, 2))
        with pytest.raises(ContractError):
            store.zeros("w", (2, 2))

    def test_init_independent_of_registration_order(self):
        s1 = ParameterStore(seed=42)
        s1.normal("a", (3,))
        s1.normal("b", (3,))
        s2 = ParameterStore(seed=42)
        s2.normal("b", (3,))
        s2.normal("a", (3,))
        np.testing.assert_array_equal(s1["a"].tensor.data, s2["a"].tensor.data)
        np.testing.assert_array_equal(s1["b"].tensor.data, s2["b"].tensor.data)

    def test_extra_registrations_do_not_shift_shared_params(self):
        plain = ParameterStore(seed=7)
        plain.normal("enc.w", (4, 4))
        fancy = ParameterStore(seed=7)
        fancy.normal("adapter.down", (4, 2))
        fancy.normal("enc.w", (4, 4))
        np.testing.assert_array_equal(plain["enc.w"].tensor.data, fancy["enc.w"].tensor.data)

    def test_different_seeds_differ(self):
        a = ParameterStore(seed=1).normal("w", (8,))
        b = ParameterStore(seed=2).normal("w", (8,))
        assert not np.array_equal(a.tensor.data, b.tensor.data)

    def test_state_roundtrip_and_mismatch(self):
        store = ParameterStore(seed=0)
        store.normal("w", (2,))
        snapshot = store.state()
        store["w"].tensor.data += 1.0
        store.load_state(snapshot)
        np.testing.assert_array_equal(store["w"].tensor.data, snapshot["w"])
        with pytest.raises(ContractError):
            store.load_state({"w": snapshot["w"], "ghost": np.zeros(1)})

    def test_load_state_moves_nothing_when_a_later_shape_does_not_fit(self):
        store = ParameterStore(seed=0)
        store.normal("first", (2,))
        store.normal("second", (3,))
        before = store.state()
        with pytest.raises(ContractError, match="shape mismatch for second"):
            store.load_state({"first": np.zeros(2), "second": np.zeros(4)})
        for name, values in before.items():
            np.testing.assert_array_equal(store[name].tensor.data, values)

    def test_load_state_does_not_alias_callers_arrays(self):
        store = ParameterStore(seed=0)
        store.normal("w", (2, 3))
        state = store.state()
        store.load_state(state)
        loaded = store["w"].tensor.data.copy()
        state["w"][0, 0] = 99.0
        np.testing.assert_array_equal(store["w"].tensor.data, loaded)
        assert store["w"].tensor.data.flags["C_CONTIGUOUS"]


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


class TestHeapPolicy:
    @pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
    def test_freed_arrays_are_reused_without_faulting_pages_in(self):
        # Three 4 MiB arrays allocated and freed per round: with glibc's
        # dynamic thresholds each round unmaps or trims them and faults them
        # back in (tens of thousands of minor faults over 40 rounds); pinned, the
        # warmed-up rounds reuse the same heap pages.
        probe = (
            "import resource, numpy as np, gcalab\n"
            "def rounds(n):\n"
            "    for _ in range(n):\n"
            "        arrays = [np.ones(1 << 19) for _ in range(3)]\n"
            "        del arrays\n"
            "rounds(40)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "rounds(40)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        src = str(Path(T.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        faults = int(subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        ).stdout)
        assert faults < 1000
        # Both mallopt calls this process made on import succeeded.
        assert T._MALLOPT_RESULTS == (1, 1)


class TestNumericalOracleSelfCheck:
    def test_fd_oracle_agrees_with_analytic_polynomial(self):
        # Sanity-check the checker itself on d/dx sum(x^2 * 3) = 6x.
        x = Tensor(np.array([0.5, -1.25, 2.0]), requires_grad=True)
        f = lambda: (x * x * 3.0).sum()
        numeric = numerical_gradient(f, x)
        np.testing.assert_allclose(numeric, 6.0 * x.data, atol=1e-7)

    def test_relative_error_guards(self):
        assert relative_error(np.array([1.0]), np.array([1.0])) == 0.0
        assert relative_error(np.array([0.0]), np.array([1e-9])) < 1e-4
        assert relative_error(np.array([1.0]), np.array([2.0])) > 0.3

    def test_check_gradients_catches_wrong_backward(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        f = lambda: (x * x).sum()
        with pytest.raises(AssertionError):
            # Deliberately corrupt the analytic grad before comparing.
            f().backward()
            x.grad = x.grad * 0.5
            numeric = numerical_gradient(f, x)
            assert relative_error(x.grad, numeric) < 1e-6, "gradient mismatch"
