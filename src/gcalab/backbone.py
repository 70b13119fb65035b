"""Dual-domain sequential recommender with configurable cross-domain wiring.

Three wiring families are expressible through ModelConfig:

* independent encoders + pairwise cross-attention (each domain queries the
  other directly),
* a shared encoder with low-rank adapters and a combined-sequence thread
  (domain adapters after encoding, invariant adapters fed by the combined
  thread, an optional third gated stage),
* independent encoders querying a combined thread whose embedding table is
  frozen and seeds the domain tables.

The forward pipeline is staged so gated cross-attention can be inserted at
stage 0 (after embedding), stage 1 (after encoding; for adapter models,
between the pipeline dropout and the encoder), and stage 2 (adapter models
only, after the domain adapters). ``forward`` embeds each thread's
``SequenceBatch`` once, then keeps a hidden tensor and a mask per thread and
hands both to each block: ``encoder(x, mask, train_rng)`` and
``gca_block(x_q, q_mask, x_kv, kv_mask, seen, probe)``, where ``seen`` is the
cross-attention visibility ``forward`` builds once per domain for all stages.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .attention import Encoder, SequenceBatch, add_position_embedding, apply_mask, visibility
from .errors import (
    ConfigError,
    ContractError,
    IndexRangeError,
    NanLossError,
    SamplingError,
    from_mapping,
)
from .gca import GcaBlock, GcaConfig, GcaProbe, align_lengths
from .rng import derive_seed
from .tensor import ParameterStore, Tensor

@dataclass
class ModelConfig:
    """A model's wiring and sizes. The combined thread is not set but
    derived from the wiring: see ``combined_embedded`` and ``threads``."""

    vocab_a: int
    vocab_b: int
    d: int = 32
    layers: int = 2
    heads: int = 4
    encoder_sharing: str = "independent"
    freeze_combined_embedding: bool = False
    adapter_rank: int | None = None
    gca: GcaConfig = field(default_factory=GcaConfig)
    dropout_p: float = 0.1
    max_len: int = 32

    def __post_init__(self):
        self.gca = from_mapping(GcaConfig, self.gca, "model.gca")
        if self.vocab_a < 1 or self.vocab_b < 1:
            raise ConfigError(f"vocabularies must be >= 1, got {self.vocab_a}, {self.vocab_b}")
        if self.d < 2:
            raise ConfigError(f"d must be >= 2, got {self.d}")
        if self.layers < 1:
            raise ConfigError(f"layers must be >= 1, got {self.layers}")
        if self.heads < 1:
            raise ConfigError(f"heads must be >= 1, got {self.heads}")
        if self.d % self.heads != 0:
            raise ConfigError(f"d={self.d} not divisible by heads={self.heads}")
        if self.encoder_sharing not in ("shared", "independent"):
            raise ConfigError(f"encoder_sharing must be shared|independent, got {self.encoder_sharing!r}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        if self.max_len < 1:
            raise ConfigError(f"max_len must be >= 1, got {self.max_len}")
        if self.adapter_rank is not None and not 1 <= self.adapter_rank < self.d:
            raise ConfigError(f"adapter_rank must satisfy 1 <= r < d, got {self.adapter_rank}")
        if self.freeze_combined_embedding and not self.combined_embedded:
            raise ConfigError(
                "freeze_combined_embedding needs a reader of the combined thread "
                "(adapters or kv_source=combined); this wiring derives combined_thread=false"
            )
        if self.gca.placements:
            if self.d % self.gca.heads != 0:
                raise ConfigError(f"d={self.d} not divisible by gca heads={self.gca.heads}")
            if max(self.gca.placements) > self.max_stage:
                raise ConfigError(
                    f"placement {max(self.gca.placements)} exceeds this wiring's last stage {self.max_stage}"
                )

    def as_built(self) -> "ModelConfig":
        """This config with every field that building and running the model
        never read set to its default: without a placement, every ``gca``
        field. Configs with equal ``as_built()`` build the same parameters
        from a seed and run the same forward pass."""
        if self.gca.placements:
            return self
        return replace(self, gca=GcaConfig())

    @property
    def max_stage(self) -> int:
        return 2 if self.adapter_rank is not None else 1

    @property
    def gate_width(self) -> int:
        return self.gca.gate_hidden if self.gca.gate_hidden is not None else self.d

    @property
    def combined_embedded(self) -> bool:
        """Whether the forward pass reads the combined thread, so it is
        embedded: adapters read it, and so does GCA with combined kv."""
        if self.adapter_rank is not None:
            return True
        return bool(self.gca.placements) and self.gca.kv_source == "combined"

    @property
    def threads(self) -> tuple[str, ...]:
        """The threads that take the pipeline dropout and an encoder, in
        build and run order. The combined thread is one of them only when it
        is read after the encoder: by adapters, or by a combined-kv placement
        at stage 1 or later."""
        if self.adapter_rank is not None or (
            self.gca.kv_source == "combined" and any(stage >= 1 for stage in self.gca.placements)
        ):
            return ("a", "b", "combined")
        return ("a", "b")


def count_parameters(cfg: ModelConfig) -> int:
    """Closed-form parameter count; must equal the built store's total size."""
    d = cfg.d
    total = (cfg.vocab_a + 1) * d + (cfg.vocab_b + 1) * d + cfg.max_len * d
    if cfg.combined_embedded:
        total += (cfg.vocab_a + cfg.vocab_b + 1) * d + 2 * d
    encoder = cfg.layers * (6 * d * d + 6 * d) + 2 * d
    total += encoder if cfg.encoder_sharing == "shared" else len(cfg.threads) * encoder
    gate = cfg.gate_width
    gca_block = 4 * d * d + (2 * d * gate + gate) + (gate * d + d)
    if cfg.gca.use_layernorm:
        gca_block += 2 * d
    total += len(cfg.gca.placements) * 2 * gca_block
    if cfg.adapter_rank is not None:
        total += 5 * 2 * d * cfg.adapter_rank
    return total


class LowRankAdapter:
    """Residual low-rank delta read from a source thread: a domain adapter
    reads its own thread, an invariant adapter the combined thread. ``up``
    starts at zero so a fresh adapter is a no-op."""

    def __init__(self, store: ParameterStore, prefix: str, d: int, rank: int):
        self.down = store.normal(f"{prefix}.down", (d, rank))
        self.up = store.zeros(f"{prefix}.up", (rank, d))

    def delta(self, source: Tensor) -> Tensor:
        return T.matmul(T.matmul(source, self.down.tensor), self.up.tensor)

    def apply(self, x: Tensor, source: Tensor) -> Tensor:
        return x + self.delta(source)


class DualDomainModel:
    """Built model: parameter store plus the staged forward pipeline."""

    def __init__(self, cfg: ModelConfig, seed: int):
        self.cfg = cfg
        self.seed = int(seed)
        store = ParameterStore(derive_seed(seed, "model"))
        self.store = store
        d = cfg.d

        # Item embeddings by thread; row 0 of each table is padding.
        self.tables = {
            "a": store.normal("emb.item_a", (cfg.vocab_a + 1, d)),
            "b": store.normal("emb.item_b", (cfg.vocab_b + 1, d)),
        }
        self.domain_tag = None
        if cfg.combined_embedded:
            self.tables["combined"] = store.normal(
                "emb.item_combined",
                (cfg.vocab_a + cfg.vocab_b + 1, d),
                trainable=not cfg.freeze_combined_embedding,
            )
            self.domain_tag = store.normal("emb.domain_tag", (2, d))
            if cfg.freeze_combined_embedding:
                # Domain tables start as copies of their combined rows.
                combined = self.tables["combined"].tensor.data
                self.tables["a"].tensor.data = combined[: cfg.vocab_a + 1].copy()
                rows_b = np.concatenate([combined[:1], combined[cfg.vocab_a + 1 :]])
                self.tables["b"].tensor.data = rows_b
        self.position = store.normal("emb.position", (cfg.max_len, d))

        def encoder(name: str) -> Encoder:
            return Encoder(store, f"enc.{name}", d, cfg.heads, cfg.dropout_p, cfg.layers)

        if cfg.encoder_sharing == "shared":
            self.encoders = dict.fromkeys(cfg.threads, encoder("shared"))
        else:
            self.encoders = {thread: encoder(thread) for thread in cfg.threads}

        self.gca_blocks: dict[int, dict[str, GcaBlock]] = {}
        install_placements(self)

        self.adapters: dict[str, LowRankAdapter] = {}
        if cfg.adapter_rank is not None:
            names = [f"domain.{thread}" for thread in cfg.threads] + ["invariant.a", "invariant.b"]
            for name in names:
                self.adapters[name] = LowRankAdapter(store, f"adapter.{name}", d, cfg.adapter_rank)

    @property
    def param_count(self) -> int:
        return self.store.total_size()

    def combined_required(self) -> bool:
        """Whether forward reads the combined batch."""
        return self.cfg.combined_embedded

    # -- forward pipeline ----------------------------------------------------

    def _embed(self, batch: SequenceBatch) -> Tensor:
        hidden = T.embedding_gather(self.tables[batch.domain].tensor, batch.ids)
        if batch.domain == "combined":
            tags = (batch.ids > self.cfg.vocab_a).astype(np.int64)
            hidden = hidden + T.embedding_gather(self.domain_tag.tensor, tags)
        return add_position_embedding(hidden, batch.mask, self.position.tensor)

    def forward(
        self,
        batch_a: SequenceBatch,
        batch_b: SequenceBatch,
        batch_combined: SequenceBatch | None = None,
        probes: dict[str, GcaProbe] | None = None,
        train_rng: np.random.Generator | None = None,
    ) -> tuple[Tensor, Tensor]:
        cfg = self.cfg
        if batch_a.batch_size != batch_b.batch_size:
            raise ContractError("domain batches must cover the same users row-wise")
        if cfg.combined_embedded and batch_combined is None:
            raise ContractError("this configuration needs the combined batch")

        batches = {"a": batch_a, "b": batch_b}
        if cfg.combined_embedded:
            batches["combined"] = batch_combined
        masks = {thread: batch.mask for thread, batch in batches.items()}
        hidden = {thread: self._embed(batch) for thread, batch in batches.items()}
        if cfg.gca.kv_source == "combined":
            kv_threads = {"a": "combined", "b": "combined"}
        else:
            kv_threads = {"a": "b", "b": "a"}

        # Each domain's view of its kv thread, shared by every stage.
        cross = {}
        if self.gca_blocks:
            cross = {
                domain: visibility(masks[kv], masks[domain].shape[1], causal=False)
                for domain, kv in kv_threads.items()
            }

        def run_stage(stage: int) -> None:
            if stage not in self.gca_blocks:
                return
            pair = self.gca_blocks[stage]
            updates = {}
            for domain, kv in kv_threads.items():
                probe = probes.get(domain) if probes else None
                updates[domain] = pair[domain](
                    hidden[domain], masks[domain], hidden[kv], masks[kv], cross[domain], probe
                )
            hidden.update(updates)

        adapter_wiring = cfg.adapter_rank is not None

        run_stage(0)
        for thread in cfg.threads:
            hidden[thread] = T.dropout(hidden[thread], cfg.dropout_p, train_rng)
        if adapter_wiring:
            run_stage(1)
        for thread in cfg.threads:
            hidden[thread] = self.encoders[thread](hidden[thread], masks[thread], train_rng)
        if not adapter_wiring:
            run_stage(1)
            return hidden["a"], hidden["b"]
        for thread in cfg.threads:
            adapted = self.adapters[f"domain.{thread}"].apply(hidden[thread], hidden[thread])
            hidden[thread] = apply_mask(adapted, masks[thread])
        run_stage(2)
        for domain in ("a", "b"):
            aligned = align_lengths(hidden[domain], hidden["combined"])
            final = self.adapters[f"invariant.{domain}"].apply(hidden[domain], source=aligned)
            hidden[domain] = apply_mask(final, masks[domain])
        return hidden["a"], hidden["b"]

    # -- scoring and loss ------------------------------------------------------

    def score_next_item(
        self, repr_: Tensor, mask: np.ndarray, candidates: np.ndarray, domain: str
    ) -> Tensor:
        """Dot products of each row's last real position against candidate embeddings."""
        if domain not in ("a", "b"):
            raise ContractError(f"scoring domain must be a|b, got {domain!r}")
        table = self.tables[domain].tensor
        vocab = table.shape[0] - 1
        candidates = np.asarray(candidates, dtype=np.int64)
        if candidates.size and (candidates.min() < 1 or candidates.max() > vocab):
            raise IndexRangeError(
                f"candidates outside [1, {vocab}]: min={candidates.min()}, max={candidates.max()}"
            )
        batch, _, d = repr_.shape
        lengths = mask.sum(axis=1)
        last = T.select_positions(repr_, np.maximum(lengths - 1, 0))
        cand_emb = T.embedding_gather(table, candidates)
        scores = T.matmul(T.reshape(last, (batch, 1, d)), T.transpose(cand_emb, (0, 2, 1)))
        return T.reshape(scores, (batch, candidates.shape[1]))

    def _training_negatives(
        self, positives: np.ndarray, vocab: int, k: int, rng: np.random.Generator
    ) -> np.ndarray:
        if vocab < 2:
            raise SamplingError(f"vocab {vocab} too small to sample negatives")
        negatives = rng.integers(1, vocab + 1, size=(positives.shape[0], k))
        collisions = negatives == positives[:, None]
        while collisions.any():
            negatives[collisions] = rng.integers(1, vocab + 1, size=int(collisions.sum()))
            collisions = negatives == positives[:, None]
        return negatives

    def training_loss(
        self,
        batch_a: SequenceBatch,
        batch_b: SequenceBatch,
        positives_a: np.ndarray,
        positives_b: np.ndarray,
        negatives_per_pos: int,
        sample_rng: np.random.Generator,
        batch_combined: SequenceBatch | None = None,
        train_rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Sampled binary cross-entropy at the final position, both domains.

        Per (user, domain) example: softplus(-s_pos) + sum_k softplus(s_neg),
        averaged over all 2B examples. All-zero scores give (1+k) ln 2.
        """
        k = negatives_per_pos
        if k < 1:
            raise ContractError(f"negatives_per_pos must be >= 1, got {k}")
        repr_a, repr_b = self.forward(batch_a, batch_b, batch_combined, train_rng=train_rng)
        batch = batch_a.batch_size
        total = None
        for domain, repr_, batch_seq, positives in (
            ("a", repr_a, batch_a, positives_a),
            ("b", repr_b, batch_b, positives_b),
        ):
            vocab = self.tables[domain].tensor.shape[0] - 1
            negatives = self._training_negatives(positives, vocab, k, sample_rng)
            candidates = np.concatenate([positives[:, None], negatives], axis=1)
            scores = self.score_next_item(repr_, batch_seq.mask, candidates, domain)
            pos_scores = T.narrow(scores, 1, 0, 1)
            neg_scores = T.narrow(scores, 1, 1, k)
            part = T.softplus(-pos_scores).sum() + T.softplus(neg_scores).sum()
            total = part if total is None else total + part
        loss = total * (1.0 / (2.0 * batch))
        if not np.isfinite(loss.data):
            raise NanLossError(
                f"training loss became {float(loss.data)} (batch={batch}, config={self.cfg.encoder_sharing}, "
                f"placements={self.cfg.gca.placements})"
            )
        return loss


def install_placements(model: DualDomainModel) -> None:
    """Build the parallel GCA pair at each of the model's placements."""
    cfg = model.cfg
    for stage in cfg.gca.placements:
        model.gca_blocks[stage] = {
            domain: GcaBlock(model.store, f"gca.{stage}.{domain}", cfg.d, cfg.gca)
            for domain in ("a", "b")
        }


def build(cfg: ModelConfig, seed: int) -> DualDomainModel:
    return DualDomainModel(cfg, seed)
