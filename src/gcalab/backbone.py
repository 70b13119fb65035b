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
hands both to each block: ``encoder(x, mask, train_rng, rows)`` and
``gca_block(x_q, q_mask, x_kv, kv_mask, seen, probe, rows)``, where ``seen`` is the
cross-attention visibility ``forward`` builds once per domain for all stages.

Training and evaluation score through ``score_candidates``: each row's last
real position, ``forward`` to those rows, then ``score_next_item`` against
candidate lists. ``training_loss`` draws the negatives first and applies
``sampled_bce``.

``forward`` narrows by one rule, owned by ``ModelConfig.narrowable_threads``:
after its encoder, domain thread a or b is read only at its scored rows,
unless the one placement after the encoders (stage 1 without adapters,
stage 2 with them) reads it as pairwise kv. On a narrowed thread, row-wise
work runs on the scored rows alone: the encoder's last softmax and final
layernorm, and in each later GCA block the softmax and the layernorm. Blocks
that read the thread at full shape (a domain adapter, the query and gate
products of a later GCA block, an invariant adapter) get the rows spread back
into a zero ``[B, L, d]`` block, so no matmul changes shape and the scored
rows keep the bits of the full pass. The combined thread always runs in full,
and so does a probed pass with a placement after the encoders, since a probe
observes every query position.
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

    @property
    def narrowable_threads(self) -> tuple[str, ...]:
        """The domain threads that every block after their encoder reads only
        at their scored rows, so their row-wise work can run on those rows
        alone. ``max_stage`` is the one placement after the encoders; a and b
        are both excluded when there it reads the other domain as kv. The
        combined thread is always read in full and is never named."""
        if self.gca.kv_source == "pairwise" and self.max_stage in self.gca.placements:
            return ()
        return ("a", "b")


def count_parameters(cfg: ModelConfig) -> int:
    """Closed-form parameter count; must equal the built store's total size."""
    d = cfg.d
    total = (cfg.vocab_a + 1) * d + (cfg.vocab_b + 1) * d + cfg.max_len * d
    if cfg.combined_embedded:
        total += (cfg.vocab_a + cfg.vocab_b + 1) * d + 2 * d
    encoder = cfg.layers * (6 * d * d + 6 * d) + 2 * d
    total += encoder if cfg.encoder_sharing == "shared" else len(cfg.threads) * encoder
    gate = cfg.gca.gate_width(d)
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
        positions: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[Tensor, Tensor]:
        """The ``[B, L, d]`` hidden states of domains a and b, or with
        ``positions`` (one per row and domain) the ``[B, d]`` rows there."""
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

        # The scored positions of each narrowed thread. Its encoder, and a
        # block after it that takes the thread as its query, return the [B, d]
        # rows there; a probe observes every query position, so a probed
        # post-encoder stage narrows nothing.
        narrowed = {}
        if positions is not None and not (probes and cfg.max_stage in self.gca_blocks):
            narrowed = {
                domain: rows
                for domain, rows in zip(("a", "b"), positions)
                if domain in cfg.narrowable_threads
            }

        def full(thread: str) -> Tensor:
            x = hidden[thread]
            return x if x.ndim == 3 else spread_rows(x, narrowed[thread], masks[thread].shape[1])

        def run_stage(stage: int) -> None:
            if stage not in self.gca_blocks:
                return
            pair = self.gca_blocks[stage]
            updates = {}
            for domain, kv in kv_threads.items():
                probe = probes.get(domain) if probes else None
                rows = narrowed.get(domain) if stage == cfg.max_stage else None
                updates[domain] = pair[domain](
                    full(domain), masks[domain], hidden[kv], masks[kv], cross[domain], probe, rows=rows
                )
            hidden.update(updates)

        adapter_wiring = cfg.adapter_rank is not None

        run_stage(0)
        for thread in cfg.threads:
            hidden[thread] = T.dropout(hidden[thread], cfg.dropout_p, train_rng)
        if adapter_wiring:
            run_stage(1)
        for thread in cfg.threads:
            encoder = self.encoders[thread]
            hidden[thread] = encoder(hidden[thread], masks[thread], train_rng, rows=narrowed.get(thread))
        if adapter_wiring:
            for thread in cfg.threads:
                x = full(thread)
                hidden[thread] = apply_mask(self.adapters[f"domain.{thread}"].apply(x, x), masks[thread])
            run_stage(2)
            for domain in ("a", "b"):
                x = full(domain)
                aligned = align_lengths(x, hidden["combined"])
                final = self.adapters[f"invariant.{domain}"].apply(x, source=aligned)
                hidden[domain] = apply_mask(final, masks[domain])
        else:
            run_stage(1)
        if positions is None:
            return hidden["a"], hidden["b"]
        return tuple(
            hidden[domain] if hidden[domain].ndim == 2 else T.select_positions(hidden[domain], rows)
            for domain, rows in zip(("a", "b"), positions)
        )

    # -- scoring and loss ------------------------------------------------------

    def score_next_item(self, rows: Tensor, candidates: np.ndarray, domain: str) -> Tensor:
        """Dot products of each ``[B, d]`` row against its row of candidate embeddings."""
        if domain not in ("a", "b"):
            raise ContractError(f"scoring domain must be a|b, got {domain!r}")
        table = self.tables[domain].tensor
        vocab = table.shape[0] - 1
        candidates = np.asarray(candidates, dtype=np.int64)
        if candidates.size and (candidates.min() < 1 or candidates.max() > vocab):
            raise IndexRangeError(
                f"candidates outside [1, {vocab}]: min={candidates.min()}, max={candidates.max()}"
            )
        batch, d = rows.shape
        cand_emb = T.embedding_gather(table, candidates)
        scores = T.matmul(T.reshape(rows, (batch, 1, d)), T.transpose(cand_emb, (0, 2, 1)))
        return T.reshape(scores, (batch, candidates.shape[1]))

    def score_candidates(
        self, batch_a: SequenceBatch, batch_b: SequenceBatch, candidates: tuple[np.ndarray, np.ndarray],
        batch_combined: SequenceBatch | None = None, probes: dict[str, GcaProbe] | None = None,
        train_rng: np.random.Generator | None = None,
    ) -> tuple[Tensor, Tensor]:
        """Per domain each row's last real position (0 when empty), taken by
        ``forward`` and scored against that row's candidates: ``(scores_a, scores_b)``."""
        positions = tuple(np.maximum(batch.mask.sum(axis=1) - 1, 0) for batch in (batch_a, batch_b))
        rows = self.forward(batch_a, batch_b, batch_combined, probes, train_rng, positions)
        return tuple(
            self.score_next_item(repr_, cands, domain)
            for domain, repr_, cands in zip(("a", "b"), rows, candidates)
        )

    def _training_negatives(self, positives: np.ndarray, vocab: int, k: int, rng: np.random.Generator) -> np.ndarray:
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
        """``sampled_bce`` over all 2B examples: per user and domain, the train
        target against ``negatives_per_pos`` uniform negatives. Negatives come
        from ``sample_rng`` first; the forward pass reads only ``train_rng``."""
        k = negatives_per_pos
        if k < 1:
            raise ContractError(f"negatives_per_pos must be >= 1, got {k}")
        candidates = []
        for domain, positives in (("a", positives_a), ("b", positives_b)):
            negatives = self._training_negatives(positives, self.tables[domain].tensor.shape[0] - 1, k, sample_rng)
            candidates.append(np.concatenate([positives[:, None], negatives], axis=1))
        scores = self.score_candidates(batch_a, batch_b, tuple(candidates), batch_combined, train_rng=train_rng)
        loss = sampled_bce(scores, 2 * batch_a.batch_size)
        if not np.isfinite(loss.data):
            raise NanLossError(
                f"training loss became {float(loss.data)} (batch={batch_a.batch_size}, "
                f"encoder_sharing={self.cfg.encoder_sharing}, placements={self.cfg.gca.placements})"
            )
        return loss


def sampled_bce(scores: tuple[Tensor, ...], count: int) -> Tensor:
    """Sum over the rows of each [rows, 1 + k] score matrix, positive in column
    0, of softplus(-s_pos) + sum_k softplus(s_neg), times ``1 / count``."""
    total = None
    for matrix in scores:
        positive, negatives = T.narrow(matrix, 1, 0, 1), T.narrow(matrix, 1, 1, matrix.shape[1] - 1)
        part = T.softplus(-positive).sum() + T.softplus(negatives).sum()
        total = part if total is None else total + part
    return total * (1.0 / count)


def spread_rows(rows: Tensor, positions: np.ndarray, length: int) -> Tensor:
    """``[B, d]`` rows back in a ``[B, length, d]`` block, each at its
    position and zero elsewhere: exact there, since ``x * 1.0`` is ``x``, so
    the products a full-shape block runs over it keep their bits at those
    rows. Built from ``mul`` and ``reshape``; its backward picks the rows."""
    batch, d = rows.shape
    one_hot = np.zeros((batch, length, 1))
    one_hot[np.arange(batch), positions, 0] = 1.0
    return T.mul(T.reshape(rows, (batch, 1, d)), Tensor(one_hot))


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
