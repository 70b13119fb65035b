"""Engine tests: forward values, gradients vs finite differences, Adam, store."""

from __future__ import annotations

import numpy as np
import pytest

import op_suite
from fdcheck import check_gradients, numerical_gradient, relative_error
from gcalab import tensor as T
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
        np.testing.assert_allclose((a - b).data, a.data - b.data)
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

    def test_node_keeps_only_what_its_backward_reads(self):
        # The split q, kᵀ and v, the softmax output and the bool draw: no
        # score, float keep mask, dropped-weight or context arrays.
        q, k, v, visible, kept = self._inputs()
        out = T.attention(q, k, v, 2, visible, 0.5, kept, 0.5)
        held = [
            cell.cell_contents
            for cell in out._backward.__closure__
            if isinstance(cell.cell_contents, np.ndarray)
        ]
        assert sorted((a.shape, a.dtype.kind) for a in held) == sorted([
            ((2, 2, 3, 2), "f"),  # q split
            ((2, 2, 2, 4), "f"),  # kᵀ
            ((2, 2, 4, 2), "f"),  # v split
            ((2, 2, 3, 4), "f"),  # softmax output
            ((2, 2, 3, 4), "b"),  # dropout draw
        ])

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

    def test_backward_twice_doubles_leaf_grads(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        loss = T.sigmoid(T.matmul(x, w)).sum()
        loss.backward()
        gx, gw = x.grad.copy(), w.grad.copy()
        loss.backward()
        np.testing.assert_array_equal(x.grad, 2.0 * gx)
        np.testing.assert_array_equal(w.grad, 2.0 * gw)

    def test_reused_node_accumulates_once_per_call(self):
        x = Tensor([1.5], requires_grad=True)
        y = x * x  # dy/dx = 2x via two paths through the same parent
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [3.0])

    def test_non_scalar_root_rejected(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ContractError):
            (x * 2.0).backward()

    def test_grad_not_tracked_without_requires_grad(self):
        x = Tensor(np.ones(3))
        y = Tensor(np.ones(3), requires_grad=True)
        (x * y).sum().backward()
        assert x.grad is None
        np.testing.assert_allclose(y.grad, np.ones(3))

    def test_detach_blocks_gradient(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x.detach() * 2.0).sum()
        y = (x.detach() * x).sum()
        y.backward()
        np.testing.assert_allclose(x.grad, np.ones(3))


class TestNoGrad:
    @staticmethod
    def graph_of(x):
        return T.softmax_lastdim(T.matmul(x, x) + 1.0)

    def test_builds_no_graph_and_keeps_values(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 3)), requires_grad=True)
        tracked = self.graph_of(x)
        with T.no_grad():
            plain = self.graph_of(x)
        assert tracked._backward is not None and tracked._parents
        assert plain._backward is None and plain._parents == ()
        assert not plain._needs_grad()
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

    def test_none_gradient_skipped(self):
        p = Parameter("w", Tensor(np.array([3.0]), requires_grad=True))
        opt = Adam([p])
        opt.step()
        np.testing.assert_array_equal(p.tensor.data, [3.0])

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
        frozen = Parameter("emb", Tensor(np.array([1.0]), requires_grad=False), trainable=False)
        opt = Adam([frozen])
        assert opt.params == []


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
