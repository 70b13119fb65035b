"""Per-user loop versions of the split and batch assembly, as references.

These hold one record per surviving user and build every batch row by row,
which is slow but easy to check by eye. The tests assert that the flat
layout of ``gcalab.data`` gives the same arrays, bit for bit.

``generate_synthetic`` keeps the synthetic log's earlier item draw, one
``rng.choice`` per user and domain; ``gcalab.data`` runs the inverse CDF that
``choice`` runs inside, and the tests assert that both give the same log.

``training_loss`` and ``evaluate`` keep the objective as it was written before
training and evaluation shared ``score_candidates``: each runs the full
``forward``, every position of every block, then its own per-domain loop that
picks the position ``max(lengths - 1, 0)`` and scores it; ``scored_rows`` is
that forward and pick alone. ``score_candidates`` instead passes the positions
into ``forward``, which on every wiring whose domain threads are read after
their encoders only at those positions runs the row-wise work there on those
rows alone. The tests assert that the shared path
gives the same rows, loss, gradients, random-stream state and metrics, bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gcalab import tensor as T
from gcalab.data import (
    AFFINITY_SHARPNESS,
    DOMAIN_A,
    DOMAIN_B,
    DOMAIN_NAMES,
    HOLDOUT,
    LATENT_DIM,
    InteractionLog,
    draw_user_interests,
)
from gcalab.metrics import auc, ndcg_at_k
from gcalab.rng import derive_rng


@dataclass
class UserSplit:
    """One surviving user's per-domain sequences with heldout items."""

    user: int
    items_a: np.ndarray
    ts_a: np.ndarray
    items_b: np.ndarray
    ts_b: np.ndarray

    def sequence(self, domain: int) -> np.ndarray:
        return self.items_a if domain == DOMAIN_A else self.items_b


def split_leave_one_out(log, min_len: int = 3) -> tuple[list[UserSplit], int]:
    """The surviving users in log order, and how many were dropped."""
    survivors: list[UserSplit] = []
    dropped = 0
    user_ids, starts = np.unique(log.users, return_index=True)
    ends = np.append(starts[1:], len(log))
    for user, start, end in zip(user_ids.tolist(), starts.tolist(), ends.tolist()):
        domains = log.domains[start:end]
        items = log.items[start:end]
        ts = log.timestamps[start:end]
        in_a, in_b = domains == DOMAIN_A, domains == DOMAIN_B
        if in_a.sum() < min_len or in_b.sum() < min_len:
            dropped += 1
            continue
        survivors.append(
            UserSplit(
                user=user,
                items_a=items[in_a], ts_a=ts[in_a],
                items_b=items[in_b], ts_b=ts[in_b],
            )
        )
    return survivors, dropped


def _pad_rows(rows: list[np.ndarray], max_len: int) -> tuple[np.ndarray, np.ndarray]:
    width = max(1, min(max_len, max((r.size for r in rows), default=1)))
    ids = np.zeros((len(rows), width), dtype=np.int64)
    mask = np.zeros((len(rows), width), dtype=bool)
    for i, row in enumerate(rows):
        tail = row[-width:] if row.size > width else row
        ids[i, : tail.size] = tail
        mask[i, : tail.size] = True
    return ids, mask


def _merge_by_time(split: UserSplit, upto_a: int, upto_b: int, vocab_a: int) -> np.ndarray:
    """Interleave domain prefixes by timestamp; B items offset past A's vocab."""
    part_a = [(int(t), int(i)) for t, i in zip(split.ts_a[:upto_a], split.items_a[:upto_a])]
    part_b = [(int(t), int(i) + vocab_a) for t, i in zip(split.ts_b[:upto_b], split.items_b[:upto_b])]
    merged = sorted(part_a + part_b, key=lambda pair: pair[0])
    return np.array([item for _, item in merged], dtype=np.int64)


def build_inputs(
    users: list[UserSplit], vocab_a: int, user_indices, stage: str, max_len: int, include_combined: bool
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """(ids, mask) per thread name: "a", "b" and, when asked, "combined"."""
    holdout = HOLDOUT[stage]
    rows_a, rows_b, rows_c = [], [], []
    for index in user_indices:
        split = users[int(index)]
        upto_a, upto_b = split.items_a.size - holdout, split.items_b.size - holdout
        rows_a.append(split.items_a[:upto_a])
        rows_b.append(split.items_b[:upto_b])
        if include_combined:
            rows_c.append(_merge_by_time(split, upto_a, upto_b, vocab_a))
    out = {"a": _pad_rows(rows_a, max_len), "b": _pad_rows(rows_b, max_len)}
    if include_combined:
        out["combined"] = _pad_rows(rows_c, max_len)
    return out


def stage_targets(users: list[UserSplit], user_indices, domain: int, stage: str) -> np.ndarray:
    holdout = HOLDOUT[stage]
    out = np.zeros(len(user_indices), dtype=np.int64)
    for row, index in enumerate(user_indices):
        out[row] = users[int(index)].sequence(domain)[-holdout]
    return out


def eval_pools(users: list[UserSplit], vocab: dict[int, int]) -> dict[int, int]:
    """Per domain: the vocabulary less the longest distinct history."""
    return {
        domain: vocab[domain] - max(len(set(u.sequence(domain).tolist())) for u in users)
        for domain in (DOMAIN_A, DOMAIN_B)
    }


def generate_synthetic(spec) -> InteractionLog:
    """The synthetic log, each user's items drawn by ``rng.choice``."""
    rng = derive_rng(spec.seed, "synth")
    item_latents = {
        domain: rng.normal(size=(spec.items_per_domain, LATENT_DIM))
        for domain in (DOMAIN_A, DOMAIN_B)
    }
    draws, orders = [], []
    for _ in range(spec.users):
        u_a, u_b = draw_user_interests(rng, spec.cross_corr)
        for domain, interest in ((DOMAIN_A, u_a), (DOMAIN_B, u_b)):
            count = int(rng.integers(spec.seq_len_range[0], spec.seq_len_range[1] + 1))
            logits = item_latents[domain] @ interest / np.sqrt(LATENT_DIM) * AFFINITY_SHARPNESS
            probs = np.exp(logits - logits.max())
            probs /= probs.sum()
            draws.append(rng.choice(spec.items_per_domain, size=count, p=probs))
        orders.append(rng.permutation(draws[-2].size + draws[-1].size))
    counts = np.array([draw.size for draw in draws]).reshape(-1, 2)
    sizes = counts.sum(axis=1)
    starts = np.repeat(np.cumsum(sizes) - sizes, sizes)
    pick = np.concatenate(orders) + starts
    domains = np.repeat(np.tile([DOMAIN_A, DOMAIN_B], spec.users), counts.ravel())
    return InteractionLog(
        users=np.repeat(np.arange(spec.users), sizes),
        items=np.concatenate(draws)[pick] + 1,
        domains=domains[pick],
        timestamps=np.arange(1, pick.size + 1) - starts,
    )


def _last(repr_, mask):
    """Each row's last real position, 0 for an empty row."""
    return T.select_positions(repr_, np.maximum(mask.sum(axis=1) - 1, 0))


def scored_rows(model, batch_a, batch_b, batch_combined=None, train_rng=None):
    """The full ``forward``, then each domain's rows at the scored positions."""
    hidden = model.forward(batch_a, batch_b, batch_combined, train_rng=train_rng)
    return tuple(_last(repr_, batch.mask) for repr_, batch in zip(hidden, (batch_a, batch_b)))


def _score_last(model, repr_, mask, candidates, domain):
    """Each row's last real position dotted with its candidates' embeddings."""
    batch, _, d = repr_.shape
    last = _last(repr_, mask)
    cand_emb = T.embedding_gather(model.tables[domain].tensor, candidates)
    scores = T.matmul(T.reshape(last, (batch, 1, d)), T.transpose(cand_emb, (0, 2, 1)))
    return T.reshape(scores, (batch, candidates.shape[1]))


def training_loss(
    model, batch_a, batch_b, positives_a, positives_b, k, sample_rng, batch_combined=None, train_rng=None
):
    """Sampled BCE at the last real position, both domains: the forward pass
    first, then per domain the negatives and the scores, times 1/(2B)."""
    repr_a, repr_b = model.forward(batch_a, batch_b, batch_combined, train_rng=train_rng)
    batch = batch_a.batch_size
    total = None
    for domain, repr_, batch_seq, positives in (
        ("a", repr_a, batch_a, positives_a),
        ("b", repr_b, batch_b, positives_b),
    ):
        vocab = model.tables[domain].tensor.shape[0] - 1
        negatives = model._training_negatives(positives, vocab, k, sample_rng)
        candidates = np.concatenate([positives[:, None], negatives], axis=1)
        scores = _score_last(model, repr_, batch_seq.mask, candidates, domain)
        pos_scores = T.narrow(scores, 1, 0, 1)
        neg_scores = T.narrow(scores, 1, 1, k)
        part = T.softplus(-pos_scores).sum() + T.softplus(neg_scores).sum()
        total = part if total is None else total + part
    return total * (1.0 / (2.0 * batch))


def evaluate(model, run, stage, probes=None):
    """``runner.evaluate``'s metrics from a forward pass per chunk, then a
    per-domain loop over its hidden tensors and masks."""
    source = run.source
    lists = source.candidates(stage, run.spec.training.eval_negatives)
    chunks = source.inputs(stage, model.cfg.max_len, model.cfg.combined_embedded)
    sums = {name: 0.0 for name in ("ndcg1_a", "ndcg1_b", "ndcg10_a", "ndcg10_b", "auc_a", "auc_b")}
    start = 0
    with T.no_grad():
        for batches in chunks:
            rows = slice(start, start + batches.batch_a.batch_size)
            start = rows.stop
            hidden = model.forward(batches.batch_a, batches.batch_b, batches.batch_combined, probes=probes)
            masks = (batches.batch_a.mask, batches.batch_b.mask)
            for (domain, suffix), repr_, mask in zip(DOMAIN_NAMES.items(), hidden, masks):
                scores = _score_last(model, repr_, mask, lists[domain][rows], suffix).data
                for name, values in (
                    (f"ndcg1_{suffix}", ndcg_at_k(scores, 0, 1)),
                    (f"ndcg10_{suffix}", ndcg_at_k(scores, 0, 10)),
                    (f"auc_{suffix}", auc(scores, 0)),
                ):
                    for value in values.tolist():
                        sums[name] += value
    return {name: value / len(source.dataset) for name, value in sums.items()}
