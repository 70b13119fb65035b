"""Tests for model wiring, parameter accounting, scoring, loss, checkpoints."""

import json
import struct
import tracemalloc

import numpy as np
import pytest

from gcalab import data, runner
from gcalab import tensor as T
from gcalab.attention import SequenceBatch, add_position_embedding, apply_mask, visibility
from gcalab.backbone import (
    DualDomainModel,
    LowRankAdapter,
    ModelConfig,
    build,
    count_parameters,
)
from gcalab.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from gcalab.errors import (
    CheckpointError,
    ConfigError,
    ContractError,
    IndexRangeError,
    NanLossError,
)
from gcalab.gca import GcaConfig, GcaProbe
from gcalab.optim import Adam
from gcalab.rng import derive_rng
from gcalab.tensor import Tensor

VOCAB_A, VOCAB_B = 12, 9


def cfg_pairwise(**overrides):
    """Independent encoders, each domain cross-attending into the other."""
    base = dict(
        vocab_a=VOCAB_A, vocab_b=VOCAB_B, d=8, layers=1, heads=2,
        encoder_sharing="independent",
        gca=GcaConfig(placements=(0,), kv_source="pairwise", heads=2),
        dropout_p=0.0, max_len=8,
    )
    base.update(overrides)
    return ModelConfig(**base)


def cfg_adapters(**overrides):
    """Shared encoder with low-rank adapters over a combined thread."""
    base = dict(
        vocab_a=VOCAB_A, vocab_b=VOCAB_B, d=8, layers=1, heads=2,
        encoder_sharing="shared", adapter_rank=2,
        gca=GcaConfig(placements=(), heads=2),
        dropout_p=0.0, max_len=8,
    )
    base.update(overrides)
    return ModelConfig(**base)


def cfg_frozen_combined(**overrides):
    """Independent encoders querying a frozen combined thread."""
    base = dict(
        vocab_a=VOCAB_A, vocab_b=VOCAB_B, d=8, layers=1, heads=2,
        encoder_sharing="independent",
        freeze_combined_embedding=True,
        gca=GcaConfig(placements=(1,), kv_source="combined", heads=2),
        dropout_p=0.0, max_len=8,
    )
    base.update(overrides)
    return ModelConfig(**base)


def make_batch(rng, vocab, batch, length, domain):
    ids = np.zeros((batch, length), dtype=np.int64)
    mask = np.zeros((batch, length), dtype=bool)
    lengths = rng.integers(1, length + 1, size=batch)
    for row, n in enumerate(lengths):
        ids[row, :n] = rng.integers(1, vocab + 1, size=n)
        mask[row, :n] = True
    return SequenceBatch(ids=ids, mask=mask, domain=domain)


def toy_batches(batch=3, seed=5):
    rng = np.random.default_rng(seed)
    return (
        make_batch(rng, VOCAB_A, batch, 5, "a"),
        make_batch(rng, VOCAB_B, batch, 4, "b"),
        make_batch(rng, VOCAB_A + VOCAB_B, batch, 7, "combined"),
    )


# -- configuration validation ---------------------------------------------------


class TestModelConfig:
    def test_d_must_divide_heads(self):
        with pytest.raises(ConfigError, match="divisible"):
            cfg_pairwise(d=9)

    @pytest.mark.parametrize(
        "overrides,word",
        [
            (dict(d=1), "d must"),
            (dict(layers=0), "layers"),
            (dict(heads=0), "heads must"),
            (dict(heads=-4), "heads must"),
            (dict(gca=GcaConfig(placements=(0,), kv_source="pairwise", heads=3)), "gca heads"),
        ],
        ids=["d", "layers", "heads-zero", "heads-negative", "gca-heads"],
    )
    def test_geometry_validated(self, overrides, word):
        # The model's geometry is checked here and nowhere else.
        with pytest.raises(ConfigError, match=word):
            cfg_pairwise(**overrides)

    def test_adapters_require_combined_thread(self):
        cfg = cfg_pairwise(adapter_rank=2)
        assert cfg.combined_embedded and cfg.threads == ("a", "b", "combined")

    def test_adapter_rank_bounds(self):
        with pytest.raises(ConfigError, match="adapter_rank"):
            cfg_adapters(adapter_rank=8)

    def test_freeze_requires_combined_thread(self):
        with pytest.raises(ConfigError, match="combined_thread"):
            cfg_pairwise(freeze_combined_embedding=True)

    def test_combined_kv_requires_combined_thread(self):
        # Read at stage 0 only: embedded, but never encoded.
        early = cfg_pairwise(gca=GcaConfig(placements=(0,), kv_source="combined", heads=2))
        assert early.combined_embedded and early.threads == ("a", "b")
        late = cfg_pairwise(gca=GcaConfig(placements=(0, 1), kv_source="combined", heads=2))
        assert late.combined_embedded and late.threads == ("a", "b", "combined")
        assert not cfg_pairwise().combined_embedded

    def test_stage_two_needs_adapters(self):
        with pytest.raises(ConfigError, match="stage"):
            cfg_frozen_combined(gca=GcaConfig(placements=(2,), kv_source="combined", heads=2))

    def test_stage_two_allowed_with_adapters(self):
        cfg = cfg_adapters(gca=GcaConfig(placements=(0, 1, 2), heads=2))
        assert cfg.max_stage == 2

    def test_gca_dict_coerced(self):
        cfg = cfg_adapters(gca={"placements": (0,), "heads": 2})
        assert isinstance(cfg.gca, GcaConfig)

    def test_bad_sharing_mode(self):
        with pytest.raises(ConfigError, match="encoder_sharing"):
            cfg_pairwise(encoder_sharing="tied")

    def test_dropout_range(self):
        with pytest.raises(ConfigError, match="dropout"):
            cfg_pairwise(dropout_p=1.0)


# -- parameter accounting ---------------------------------------------------------


PARAM_COUNT_CONFIGS = [
    cfg_pairwise(),
    cfg_pairwise(gca=GcaConfig(placements=(), heads=2, kv_source="pairwise")),
    cfg_pairwise(gca=GcaConfig(placements=(0, 1), kv_source="pairwise", heads=2, use_layernorm=False)),
    cfg_pairwise(d=16, heads=4, layers=2, gca=GcaConfig(placements=(1,), kv_source="pairwise")),
    cfg_pairwise(gca=GcaConfig(placements=(0,), kv_source="pairwise", heads=2, gate_hidden=3)),
    cfg_adapters(),
    cfg_adapters(gca=GcaConfig(placements=(0, 1, 2), heads=2)),
    cfg_adapters(adapter_rank=4, d=16, heads=4),
    cfg_adapters(encoder_sharing="shared", layers=3),
    cfg_frozen_combined(),
    cfg_frozen_combined(gca=GcaConfig(placements=(0, 1), kv_source="combined", heads=2)),
    cfg_frozen_combined(max_len=20, d=24, heads=3, gca=GcaConfig(placements=(1,), kv_source="combined", heads=4)),
    ModelConfig(vocab_a=30, vocab_b=5, d=8, heads=2, layers=1,
                gca=GcaConfig(placements=(0,), kv_source="combined", heads=2), max_len=8),
    ModelConfig(vocab_a=VOCAB_A, vocab_b=VOCAB_B, d=16, layers=1,
                gca=GcaConfig(placements=(0,), kv_source="pairwise")),
    ModelConfig(vocab_a=VOCAB_A, vocab_b=VOCAB_B, d=16, layers=1,
                gca=GcaConfig(placements=(0,), kv_source="combined")),
]


class TestParameterCount:
    @pytest.mark.parametrize("cfg", PARAM_COUNT_CONFIGS, ids=range(len(PARAM_COUNT_CONFIGS)))
    def test_closed_form_matches_store(self, cfg):
        model = build(cfg, seed=1)
        assert count_parameters(cfg) == model.param_count

    @pytest.mark.parametrize("cfg", PARAM_COUNT_CONFIGS, ids=range(len(PARAM_COUNT_CONFIGS)))
    def test_every_trainable_parameter_gets_a_gradient(self, cfg):
        model = build(cfg, seed=1)
        rng = np.random.default_rng(3)
        batch_a = make_batch(rng, cfg.vocab_a, 3, 5, "a")
        batch_b = make_batch(rng, cfg.vocab_b, 3, 4, "b")
        batch_c = make_batch(rng, cfg.vocab_a + cfg.vocab_b, 3, 7, "combined")
        loss = model.training_loss(
            batch_a, batch_b,
            positives_a=np.array([1, 2, 3]), positives_b=np.array([3, 2, 1]),
            negatives_per_pos=2, sample_rng=np.random.default_rng(0),
            batch_combined=batch_c,
        )
        loss.backward()
        dead = [p.name for p in model.store.trainable_parameters() if p.tensor.grad is None]
        assert dead == []

    def test_each_placement_adds_two_blocks(self):
        base = cfg_pairwise(gca=GcaConfig(placements=(), kv_source="pairwise", heads=2))
        one = cfg_pairwise(gca=GcaConfig(placements=(0,), kv_source="pairwise", heads=2))
        two = cfg_pairwise(gca=GcaConfig(placements=(0, 1), kv_source="pairwise", heads=2))
        d = base.d
        block = 4 * d * d + 2 * d * d + d + d * d + d + 2 * d
        assert count_parameters(one) - count_parameters(base) == 2 * block
        assert count_parameters(two) - count_parameters(one) == 2 * block

    def test_frozen_parameters_still_counted(self):
        frozen = cfg_frozen_combined()
        thawed = cfg_frozen_combined(freeze_combined_embedding=False)
        assert count_parameters(frozen) == count_parameters(thawed)
        model = build(frozen, seed=0)
        assert model.param_count == count_parameters(frozen)

    def test_shared_encoder_cheaper_than_independent(self):
        shared = cfg_adapters()
        independent = cfg_adapters(encoder_sharing="independent")
        d, layers = shared.d, shared.layers
        encoder = layers * (6 * d * d + 6 * d) + 2 * d
        assert count_parameters(independent) - count_parameters(shared) == 2 * encoder


# -- build determinism and parameter sharing ----------------------------------------


class TestBuildDeterminism:
    @pytest.mark.parametrize("factory", [cfg_pairwise, cfg_adapters, cfg_frozen_combined])
    def test_same_seed_bitwise_identical(self, factory):
        first = build(factory(), seed=3).store.state()
        second = build(factory(), seed=3).store.state()
        assert first.keys() == second.keys()
        for name in first:
            np.testing.assert_array_equal(first[name], second[name])

    def test_different_seeds_differ(self):
        first = build(cfg_pairwise(), seed=3)
        second = build(cfg_pairwise(), seed=4)
        assert not np.array_equal(
            first.tables["a"].tensor.data, second.tables["a"].tensor.data
        )

    def test_shared_names_agree_across_configs(self):
        # Per-name init streams: two wirings sharing a parameter name draw
        # identical values for it, regardless of what else they allocate.
        plain = build(cfg_adapters(gca=GcaConfig(placements=(), heads=2)), seed=7)
        gated = build(cfg_adapters(gca=GcaConfig(placements=(0, 2), heads=2)), seed=7)
        plain_state = plain.store.state()
        gated_state = gated.store.state()
        for name in set(plain_state) & set(gated_state):
            np.testing.assert_array_equal(plain_state[name], gated_state[name])


# -- frozen combined table -----------------------------------------------------------


class TestFrozenCombined:
    def test_domain_tables_start_as_combined_rows(self):
        model = build(cfg_frozen_combined(), seed=2)
        combined = model.tables["combined"].tensor.data
        np.testing.assert_array_equal(model.tables["a"].tensor.data, combined[: VOCAB_A + 1])
        np.testing.assert_array_equal(
            model.tables["b"].tensor.data[1:], combined[VOCAB_A + 1 :]
        )

    def test_frozen_table_gets_no_gradient(self):
        model = build(cfg_frozen_combined(), seed=2)
        batch_a, batch_b, batch_c = toy_batches()
        loss = model.training_loss(
            batch_a, batch_b,
            positives_a=np.array([1, 2, 3]), positives_b=np.array([4, 5, 6]),
            negatives_per_pos=2, sample_rng=np.random.default_rng(0),
            batch_combined=batch_c,
        )
        loss.backward()
        assert model.tables["combined"].tensor.grad is None
        assert model.tables["a"].tensor.grad is not None

    def test_frozen_table_survives_optimizer_steps(self):
        model = build(cfg_frozen_combined(), seed=2)
        frozen_before = model.tables["combined"].tensor.data.copy()
        domain_before = model.tables["a"].tensor.data.copy()
        optimizer = Adam(model.store.parameters(), lr=1e-2)
        batch_a, batch_b, batch_c = toy_batches()
        rng = np.random.default_rng(1)
        for _ in range(3):
            optimizer.zero_grad()
            loss = model.training_loss(
                batch_a, batch_b,
                positives_a=np.array([1, 2, 3]), positives_b=np.array([4, 5, 6]),
                negatives_per_pos=2, sample_rng=rng, batch_combined=batch_c,
            )
            loss.backward()
            optimizer.step()
        np.testing.assert_array_equal(model.tables["combined"].tensor.data, frozen_before)
        assert not np.array_equal(model.tables["a"].tensor.data, domain_before)


# -- adapters --------------------------------------------------------------------------


class TestAdapters:
    def test_fresh_adapters_are_identity(self):
        # With zero-initialized up projections, the adapter wiring must
        # reproduce a same-seed adapter-free shared-encoder model exactly.
        adapted = build(cfg_adapters(), seed=9)
        control = build(
            ModelConfig(
                vocab_a=VOCAB_A, vocab_b=VOCAB_B, d=8, layers=1, heads=2,
                encoder_sharing="shared",
                gca=GcaConfig(placements=(), heads=2), dropout_p=0.0, max_len=8,
            ),
            seed=9,
        )
        batch_a, batch_b, batch_c = toy_batches()
        out_adapted = adapted.forward(batch_a, batch_b, batch_c)
        out_control = control.forward(batch_a, batch_b)
        np.testing.assert_array_equal(out_adapted[0].data, out_control[0].data)
        np.testing.assert_array_equal(out_adapted[1].data, out_control[1].data)

    def test_nonzero_adapters_change_output(self):
        model = build(cfg_adapters(), seed=9)
        batch_a, batch_b, batch_c = toy_batches()
        before = model.forward(batch_a, batch_b, batch_c)[0].data.copy()
        model.store["adapter.domain.a.up"].tensor.data[:] = 0.3
        after = model.forward(batch_a, batch_b, batch_c)[0].data
        assert not np.array_equal(before, after)

    def test_invariant_adapter_needs_source(self):
        from gcalab.tensor import ParameterStore, Tensor

        store = ParameterStore(0)
        adapter = LowRankAdapter(store, "ad", d=4, rank=2)
        store["ad.up"].tensor.data[:] = 0.5
        x = Tensor(np.zeros((1, 2, 4)))
        source = Tensor(np.ones((1, 2, 4)))
        # The delta is read from the source, not from x.
        np.testing.assert_array_equal(adapter.apply(x, source).data, adapter.delta(source).data)
        assert np.abs(adapter.apply(x, source).data).max() > 0.0
        with pytest.raises(TypeError):
            adapter.apply(x)


# -- forward shapes and modes ----------------------------------------------------------


class TestForward:
    @pytest.mark.parametrize("factory", [cfg_pairwise, cfg_adapters, cfg_frozen_combined])
    def test_output_shapes(self, factory):
        model = build(factory(), seed=1)
        batch_a, batch_b, batch_c = toy_batches()
        repr_a, repr_b = model.forward(batch_a, batch_b, batch_c)
        assert repr_a.shape == (3, 5, 8)
        assert repr_b.shape == (3, 4, 8)

    def test_eval_mode_deterministic(self):
        model = build(cfg_adapters(dropout_p=0.2), seed=1)
        batch_a, batch_b, batch_c = toy_batches()
        first = model.forward(batch_a, batch_b, batch_c)[0].data
        second = model.forward(batch_a, batch_b, batch_c)[0].data
        np.testing.assert_array_equal(first, second)

    def test_train_mode_rngs_differ(self):
        model = build(cfg_adapters(dropout_p=0.5), seed=1)
        batch_a, batch_b, batch_c = toy_batches()
        one = model.forward(batch_a, batch_b, batch_c, train_rng=np.random.default_rng(0))[0].data
        two = model.forward(batch_a, batch_b, batch_c, train_rng=np.random.default_rng(1))[0].data
        assert not np.array_equal(one, two)

    def test_combined_required_but_missing(self):
        model = build(cfg_frozen_combined(), seed=1)
        batch_a, batch_b, _ = toy_batches()
        with pytest.raises(ContractError, match="combined"):
            model.forward(batch_a, batch_b)

    def test_pairwise_ignores_combined_thread(self):
        model = build(cfg_pairwise(), seed=1)
        assert not model.combined_required()
        assert not any("combined" in p.name for p in model.store.parameters())
        batch_a, batch_b, _ = toy_batches()
        repr_a, _ = model.forward(batch_a, batch_b)
        assert repr_a.shape == (3, 5, 8)

    def test_padding_rows_stay_zero(self):
        model = build(cfg_frozen_combined(), seed=1)
        batch_a, batch_b, batch_c = toy_batches()
        repr_a, repr_b = model.forward(batch_a, batch_b, batch_c)
        assert np.all(repr_a.data[~batch_a.mask] == 0.0)
        assert np.all(repr_b.data[~batch_b.mask] == 0.0)

    def test_zero_gate_tanh_placements_are_identity_without_layernorm(self):
        # tanh gate starts at zero, so a fresh gated model without the block
        # layernorm must agree bitwise with the placement-free model.
        plain = build(cfg_pairwise(gca=GcaConfig(placements=(), kv_source="pairwise", heads=2)), seed=6)
        gated = build(
            cfg_pairwise(
                gca=GcaConfig(placements=(0, 1), kv_source="pairwise", heads=2,
                              gate_activation="tanh", use_layernorm=False)
            ),
            seed=6,
        )
        batch_a, batch_b, _ = toy_batches()
        out_plain = plain.forward(batch_a, batch_b)
        out_gated = gated.forward(batch_a, batch_b)
        np.testing.assert_array_equal(out_plain[0].data, out_gated[0].data)
        np.testing.assert_array_equal(out_plain[1].data, out_gated[1].data)

    def test_adapter_wiring_runs_stage_one_before_encoder(self):
        cfg = cfg_adapters(gca=GcaConfig(placements=(1,), heads=2))
        model = build(cfg, seed=4)
        # Saturate the gate so the stage visibly rewrites its input.
        model.store["gca.1.a.gate.b2"].tensor.data[:] = 40.0
        batch_a, batch_b, batch_c = toy_batches()

        seen = []
        encoder = model.encoders["a"]

        class Spy:
            def __call__(self, x, mask, train_rng=None):
                seen.append(x.data.copy())
                return encoder(x, mask, train_rng)

        model.encoders["a"] = Spy()
        model.forward(batch_a, batch_b, batch_c)
        embedded = model._embed(batch_a)
        crossed = model.gca_blocks[1]["a"](
            embedded, batch_a.mask, model._embed(batch_c), batch_c.mask,
            visibility(batch_c.mask, batch_a.mask.shape[1], causal=False),
        )
        assert len(seen) == 1
        np.testing.assert_allclose(seen[0], crossed.data, rtol=0, atol=1e-12)

    def test_independent_wiring_runs_stage_one_after_encoder(self):
        cfg = cfg_pairwise(gca=GcaConfig(placements=(1,), kv_source="pairwise", heads=2))
        model = build(cfg, seed=4)
        batch_a, batch_b, _ = toy_batches()

        seen = []
        encoder = model.encoders["a"]

        class Spy:
            def __call__(self, x, mask, train_rng=None):
                seen.append(x.data.copy())
                return encoder(x, mask, train_rng)

        model.encoders["a"] = Spy()
        model.forward(batch_a, batch_b)
        embedded = model._embed(batch_a)
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], embedded.data)

    def test_probes_accumulate_per_domain(self):
        model = build(cfg_frozen_combined(), seed=1)
        probes = {"a": GcaProbe(), "b": GcaProbe()}
        batch_a, batch_b, batch_c = toy_batches()
        model.forward(batch_a, batch_b, batch_c, probes=probes)
        for probe in probes.values():
            assert probe.batch_count == 1
            assert 0.0 <= probe.cos_xxprime <= 1.0
            assert 0.0 <= probe.cos_xy <= 1.0

    def test_probes_cover_every_placement(self):
        cfg = cfg_adapters(gca=GcaConfig(placements=(0, 1, 2), heads=2))
        model = build(cfg, seed=1)
        probes = {"a": GcaProbe(), "b": GcaProbe()}
        batch_a, batch_b, batch_c = toy_batches()
        model.forward(batch_a, batch_b, batch_c, probes=probes)
        assert probes["a"].batch_count == 3
        assert probes["b"].batch_count == 3

    def test_probes_leave_forward_unchanged(self):
        model = build(cfg_frozen_combined(), seed=1)
        batch_a, batch_b, batch_c = toy_batches()
        bare = model.forward(batch_a, batch_b, batch_c)[0].data
        probed = model.forward(
            batch_a, batch_b, batch_c, probes={"a": GcaProbe(), "b": GcaProbe()}
        )[0].data
        np.testing.assert_array_equal(bare, probed)

    def test_probes_fill_under_no_grad(self):
        cfg = cfg_adapters(gca=GcaConfig(placements=(0, 1, 2), heads=2))
        model = build(cfg, seed=1)
        batch_a, batch_b, batch_c = toy_batches()
        tracked = {"a": GcaProbe(), "b": GcaProbe()}
        repr_a, _ = model.forward(batch_a, batch_b, batch_c, probes=tracked)
        plain = {"a": GcaProbe(), "b": GcaProbe()}
        with T.no_grad():
            plain_a, _ = model.forward(batch_a, batch_b, batch_c, probes=plain)
        assert plain_a._backward is None and repr_a._backward is not None
        np.testing.assert_array_equal(plain_a.data, repr_a.data)
        for domain in ("a", "b"):
            assert plain[domain].batch_count == 3
            assert plain[domain].cos_xxprime == tracked[domain].cos_xxprime
            assert plain[domain].cos_xy == tracked[domain].cos_xy


def double_masked_embed(model, batch):
    """The double-masked embedding chain (mask, add position rows, mask),
    kept as the parity reference for ``_embed``."""
    hidden = T.embedding_gather(model.tables[batch.domain].tensor, batch.ids)
    if batch.domain == "combined":
        tags = (batch.ids > model.cfg.vocab_a).astype(np.int64)
        hidden = hidden + T.embedding_gather(model.domain_tag.tensor, tags)
    hidden = apply_mask(hidden, batch.mask)
    return add_position_embedding(hidden, batch.mask, model.position.tensor)


class TestEmbedParity:
    @pytest.mark.parametrize("domain", ["a", "combined"])
    def test_single_mask_matches_double_mask_bitwise(self, domain):
        model = build(cfg_adapters(), seed=2)
        batch = dict(zip(("a", "b", "combined"), toy_batches()))[domain]
        weights = Tensor(np.random.default_rng(8).normal(size=batch.ids.shape + (8,)))
        names = [f"emb.item_{domain}", "emb.position"]
        if domain == "combined":
            names.append("emb.domain_tag")

        def run(embed):
            for param in model.store.parameters():
                param.tensor.grad = None
            out = embed(batch)
            (out * weights).sum().backward()
            return out.data, {name: model.store[name].tensor.grad for name in names}

        got_out, got = run(model._embed)
        want_out, want = run(lambda batch: double_masked_embed(model, batch))
        assert np.array_equal(got_out, want_out)
        for name in names:
            assert want[name] is not None, name
            assert np.array_equal(got[name], want[name]), name


# -- scoring ---------------------------------------------------------------------------


class TestScoring:
    def test_scores_match_manual_dot_products(self):
        model = build(cfg_pairwise(), seed=8)
        batch_a, batch_b, _ = toy_batches()
        repr_a, _ = model.forward(batch_a, batch_b)
        candidates = np.array([[1, 5, 9], [2, 2, 7], [11, 3, 4]])
        scores = model.score_next_item(repr_a, batch_a.mask, candidates, "a")
        table = model.tables["a"].tensor.data
        for row in range(3):
            last = repr_a.data[row, batch_a.mask[row].sum() - 1]
            for col in range(3):
                expected = float(last @ table[candidates[row, col]])
                assert scores.data[row, col] == pytest.approx(expected, rel=1e-12)

    def test_candidates_validated_against_vocab(self):
        model = build(cfg_pairwise(), seed=8)
        batch_a, batch_b, _ = toy_batches()
        repr_a, _ = model.forward(batch_a, batch_b)
        with pytest.raises(IndexRangeError):
            model.score_next_item(repr_a, batch_a.mask, np.array([[0, 1]]), "a")
        with pytest.raises(IndexRangeError):
            model.score_next_item(repr_a, batch_a.mask, np.array([[VOCAB_A + 1, 1]]), "a")

    def test_scoring_domain_validated(self):
        model = build(cfg_pairwise(), seed=8)
        batch_a, batch_b, _ = toy_batches()
        repr_a, _ = model.forward(batch_a, batch_b)
        with pytest.raises(ContractError, match="domain"):
            model.score_next_item(repr_a, batch_a.mask, np.array([[1]]), "combined")

    def test_gradient_reaches_candidate_embeddings(self):
        model = build(cfg_pairwise(), seed=8)
        batch_a, batch_b, _ = toy_batches()
        repr_a, _ = model.forward(batch_a, batch_b)
        scores = model.score_next_item(repr_a, batch_a.mask, np.array([[1, 5], [2, 7], [3, 4]]), "a")
        scores.sum().backward()
        grad = model.tables["a"].tensor.grad
        assert grad is not None
        assert np.any(grad[1] != 0)


# -- training loss -----------------------------------------------------------------------


class TestTrainingLoss:
    def loss_args(self, rng_seed=0):
        batch_a, batch_b, batch_c = toy_batches()
        return dict(
            batch_a=batch_a, batch_b=batch_b,
            positives_a=np.array([1, 2, 3]), positives_b=np.array([4, 5, 6]),
            negatives_per_pos=3, sample_rng=np.random.default_rng(rng_seed),
            batch_combined=batch_c,
        )

    def test_all_zero_parameters_give_chance_loss(self):
        # Zero weights force zero scores everywhere, so each of the 2B
        # examples contributes softplus(0) * (1 + k) = (1 + k) ln 2.
        model = build(cfg_adapters(), seed=0)
        model.store.load_state({p.name: np.zeros_like(p.tensor.data) for p in model.store.parameters()})
        loss = model.training_loss(**self.loss_args())
        assert loss.data.item() == pytest.approx(4 * np.log(2), rel=1e-12)

    def test_loss_is_finite_scalar(self):
        model = build(cfg_frozen_combined(), seed=1)
        loss = model.training_loss(**self.loss_args())
        assert loss.shape == ()
        assert np.isfinite(loss.data)

    def test_negatives_avoid_positives(self):
        model = build(cfg_pairwise(), seed=1)
        rng = np.random.default_rng(3)
        positives = np.array([4] * 64)
        negatives = model._training_negatives(positives, vocab=5, k=6, rng=rng)
        assert negatives.shape == (64, 6)
        assert np.all(negatives != 4)
        assert negatives.min() >= 1 and negatives.max() <= 5

    def test_loss_deterministic_given_rngs(self):
        model = build(cfg_frozen_combined(), seed=1)
        first = model.training_loss(**self.loss_args(rng_seed=5)).data
        second = model.training_loss(**self.loss_args(rng_seed=5)).data
        np.testing.assert_array_equal(first, second)

    def test_nan_parameters_raise(self):
        model = build(cfg_pairwise(), seed=1)
        model.tables["a"].tensor.data[1, 0] = np.nan
        with pytest.raises(NanLossError):
            args = self.loss_args()
            args.pop("batch_combined")
            model.training_loss(**args, batch_combined=None)

    def test_inf_loss_raises(self, monkeypatch):
        # +inf scores make every negative's softplus term inf, and the loss
        # with them, without any NaN along the way.
        model = build(cfg_pairwise(), seed=1)
        score = model.score_next_item
        monkeypatch.setattr(model, "score_next_item", lambda *args: score(*args) + np.inf)
        args = self.loss_args()
        args.pop("batch_combined")
        with pytest.raises(NanLossError, match="inf"):
            model.training_loss(**args, batch_combined=None)

    def test_negatives_per_pos_validated(self):
        model = build(cfg_pairwise(), seed=1)
        args = self.loss_args()
        args["negatives_per_pos"] = 0
        with pytest.raises(ContractError, match="negatives_per_pos"):
            model.training_loss(**args)

    @pytest.mark.parametrize("factory", [cfg_pairwise, cfg_adapters, cfg_frozen_combined])
    def test_short_training_reduces_loss(self, factory):
        model = build(factory(), seed=2)
        optimizer = Adam(model.store.parameters(), lr=5e-3)
        sample_rng = np.random.default_rng(7)
        batch_a, batch_b, batch_c = toy_batches(batch=8, seed=11)
        positives_a = np.random.default_rng(1).integers(1, VOCAB_A + 1, size=8)
        positives_b = np.random.default_rng(2).integers(1, VOCAB_B + 1, size=8)
        losses = []
        for _ in range(50):
            optimizer.zero_grad()
            loss = model.training_loss(
                batch_a, batch_b, positives_a, positives_b,
                negatives_per_pos=2, sample_rng=sample_rng, batch_combined=batch_c,
            )
            loss.backward()
            optimizer.step()
            losses.append(loss.data.item())
        assert losses[-1] < losses[0]
        assert np.mean(losses[-5:]) < np.mean(losses[:5])


class TestGraphMemory:
    """The acceptance smoke model's training graph on one batch of 128. Its
    nodes keep only what backward reads, about 15 MB; the bound sits well
    below the 32 MB the graph holds when every node also keeps its output.
    Backward consumes the graph, so a loss held after it keeps almost none."""

    GRAPH_LIMIT_MB = 20.0
    HELD_AFTER_BACKWARD_MB = 1.0

    def test_graph_holds_only_what_backward_reads(self, tmp_path):
        spec = runner.RunSpec(
            model={
                "d": 32, "layers": 2, "heads": 4, "encoder_sharing": "independent",
                "dropout_p": 0.0, "max_len": 16,
                "gca": {
                    "placements": [0], "kv_source": "pairwise", "heads": 4,
                    "gate_activation": "tanh", "use_layernorm": False,
                },
            },
            data=data.SynthSpec(users=500, items_per_domain=200, cross_corr=0.7,
                                seq_len_range=(3, 10), seed=1),
            training={"batch_size": 128, "negatives_per_pos": 4},
            seeds=(0,),
            output_dir=str(tmp_path),
        )
        dataset = runner.load_dataset(spec)
        cfg = runner.resolve_model_config(spec, dataset)
        model = build(cfg, 0)
        users = np.arange(128)
        inputs = data.build_inputs(dataset, users, "train", cfg.max_len, model.combined_required())
        positives_a = data.stage_targets(dataset, users, data.DOMAIN_A, "train")
        positives_b = data.stage_targets(dataset, users, data.DOMAIN_B, "train")

        def loss():
            return model.training_loss(
                inputs.batch_a, inputs.batch_b, positives_a, positives_b, 4,
                derive_rng(0, "negatives"), batch_combined=inputs.batch_combined,
            )

        with T.no_grad():
            plain = loss()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracked = loss()
            held_mb = (tracemalloc.get_traced_memory()[0] - before) / 2**20
            # The parameters' first grads (0.4 MB) count towards the bound.
            tracked.backward()
            after_backward_mb = (tracemalloc.get_traced_memory()[0] - before) / 2**20
        finally:
            tracemalloc.stop()
        assert held_mb <= self.GRAPH_LIMIT_MB
        assert held_mb > 10 * self.HELD_AFTER_BACKWARD_MB
        assert after_backward_mb <= self.HELD_AFTER_BACKWARD_MB
        assert tracked.data.item() == plain.data.item() == pytest.approx(3.463312177512749, rel=1e-12)


# -- checkpoints ---------------------------------------------------------------------------


def rewrite_checkpoint(path, edit_header=None, payload_tail=b""):
    """Rewrite a saved checkpoint with its parsed header passed through
    ``edit_header`` and ``payload_tail`` appended to the payload."""
    raw = path.read_bytes()
    header_len = struct.unpack_from("<Q", raw, 8)[0]
    header = json.loads(raw[16 : 16 + header_len])
    if edit_header is not None:
        header = edit_header(header)
    encoded = json.dumps(header).encode("utf-8")
    path.write_bytes(
        MAGIC + raw[4:8] + struct.pack("<Q", len(encoded)) + encoded
        + raw[16 + header_len :] + payload_tail
    )


def _drop_first_shape(header):
    del header["params"][0]["shape"]
    return header


def _negative_first_offset(header):
    header["params"][0]["offset"] = -1
    return header


def _first_shape(shape):
    def edit(header):
        header["params"][0]["shape"] = shape
        return header

    return edit


def _duplicate_first_entry(header):
    header["params"].append(dict(header["params"][0], offset=header["params"][1]["offset"]))
    return header


MALFORMED_CHECKPOINTS = {
    "payload_not_whole_float64": dict(payload_tail=b"\x00" * 3),
    "header_without_params": dict(edit_header=lambda header: {"format": header["format"]}),
    "header_is_list": dict(edit_header=lambda header: [header]),
    "entry_without_shape": dict(edit_header=_drop_first_shape),
    "negative_offset": dict(edit_header=_negative_first_offset),
    "fractional_shape": dict(edit_header=_first_shape([2.5])),
    "negative_shape": dict(edit_header=_first_shape([-2, -3])),
    "shape_of_70_dims": dict(edit_header=_first_shape([1] * 70)),
    "entry_listed_twice": dict(edit_header=_duplicate_first_entry),
}


class TestCheckpoint:
    def test_round_trip_restores_bitwise(self, tmp_path):
        model = build(cfg_adapters(), seed=3)
        path = str(tmp_path / "model.ckpt")
        reference = model.store.state()
        save_checkpoint(model.store, path)
        for param in model.store.parameters():
            param.tensor.data = param.tensor.data + 1.0
        load_checkpoint(model.store, path)
        restored = model.store.state()
        for name, values in reference.items():
            np.testing.assert_array_equal(restored[name], values)

    def test_config_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(build(cfg_adapters(), seed=3).store, path)
        other = build(cfg_pairwise(), seed=3)
        with pytest.raises(CheckpointError, match="mismatch"):
            load_checkpoint(other.store, path)

    @pytest.mark.parametrize(
        "saved",
        [cfg_adapters(), cfg_pairwise(gca=GcaConfig(placements=(0,), kv_source="pairwise", heads=2, gate_hidden=4))],
        ids=["other-names", "later-shapes-differ"],
    )
    def test_checkpoint_of_another_wiring_leaves_the_store_unchanged(self, tmp_path, saved):
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(build(saved, seed=3).store, path)
        other = build(cfg_pairwise(), seed=5)
        before = other.store.state()
        with pytest.raises(CheckpointError, match="model.ckpt"):
            load_checkpoint(other.store, path)
        after = other.store.state()
        assert after.keys() == before.keys()
        for name, values in before.items():
            assert after[name].tobytes() == values.tobytes()

    def test_shape_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(build(cfg_pairwise(), seed=3).store, path)
        other = build(cfg_pairwise(d=16, heads=4), seed=3)
        with pytest.raises(CheckpointError):
            load_checkpoint(other.store, path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        model = build(cfg_pairwise(), seed=3)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(model.store, str(path))

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        model = build(cfg_pairwise(), seed=3)
        save_checkpoint(model.store, str(path))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 64])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(model.store, str(path))

    @pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
    def test_malformed_file_raises_checkpoint_error(self, tmp_path, case):
        path = tmp_path / "malformed.ckpt"
        model = build(cfg_pairwise(), seed=3)
        save_checkpoint(model.store, str(path))
        rewrite_checkpoint(path, **MALFORMED_CHECKPOINTS[case])
        with pytest.raises(CheckpointError, match="malformed.ckpt"):
            load_checkpoint(model.store, str(path))

    def test_missing_file_reports_path(self, tmp_path):
        model = build(cfg_pairwise(), seed=3)
        with pytest.raises(CheckpointError, match="nowhere.ckpt"):
            load_checkpoint(model.store, str(tmp_path / "nowhere.ckpt"))
