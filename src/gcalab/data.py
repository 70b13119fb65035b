"""Synthetic cross-domain logs, TSV ingestion, leave-one-out splits, batching.

The synthetic generator uses a latent-factor model: each user draws a pair of
interest vectors whose correlation across domains is exactly ``cross_corr``,
items carry fixed latent vectors, and interactions are softmax-affinity draws.
Higher cross_corr therefore means domain-B history genuinely predicts
domain-A behavior, which is the phenomenon the experiments measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .attention import SequenceBatch
from .errors import (
    ConfigError,
    ContractError,
    EmptyDatasetError,
    ParseError,
    SamplingError,
)
from .files import write_atomic
from .rng import derive_rng

LATENT_DIM = 8
AFFINITY_SHARPNESS = 2.0

DOMAIN_A = 0
DOMAIN_B = 1
# Each domain's name: the suffix of its metrics, item maps and evaluation
# streams. A log file and error messages spell it in capitals.
DOMAIN_NAMES = {DOMAIN_A: "a", DOMAIN_B: "b"}
_DOMAIN_LABELS = {name.upper(): domain for domain, name in DOMAIN_NAMES.items()}


@dataclass
class InteractionLog:
    """Flat event table sorted by (user, timestamp); item id 0 is reserved."""

    users: np.ndarray
    items: np.ndarray
    domains: np.ndarray
    timestamps: np.ndarray
    # Raw item id -> dense id per domain, for logs parsed from a file.
    item_maps: dict[int, dict[int, int]] = field(default_factory=dict)

    def __post_init__(self):
        self.users = np.asarray(self.users, dtype=np.int64)
        self.items = np.asarray(self.items, dtype=np.int64)
        self.domains = np.asarray(self.domains, dtype=np.int64)
        self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        n = self.users.shape[0]
        if not (self.items.shape[0] == self.domains.shape[0] == self.timestamps.shape[0] == n):
            raise ContractError("log columns must have equal length")
        if n and self.items.min() < 1:
            raise ContractError("item ids must be >= 1 (0 is padding)")
        if n and not np.isin(self.domains, (DOMAIN_A, DOMAIN_B)).all():
            raise ContractError("domains must be 0 (A) or 1 (B)")
        order = np.lexsort((self.timestamps, self.users))
        if not (order == np.arange(n)).all():
            raise ContractError("rows must be sorted by (user, timestamp)")
        if n:
            same_user = self.users[1:] == self.users[:-1]
            if (same_user & (self.timestamps[1:] <= self.timestamps[:-1])).any():
                raise ContractError("per-user timestamps must be strictly increasing")

    def __len__(self) -> int:
        return int(self.users.shape[0])

    def vocab_size(self, domain: int) -> int:
        picked = self.items[self.domains == domain]
        return int(picked.max()) if picked.size else 0

    def user_ids(self) -> np.ndarray:
        return np.unique(self.users)


@dataclass
class SynthSpec:
    users: int
    items_per_domain: int
    cross_corr: float
    seq_len_range: tuple[int, int]
    seed: int = 0

    def __post_init__(self):
        self.seq_len_range = tuple(self.seq_len_range)
        if len(self.seq_len_range) != 2:
            raise ConfigError(f"seq_len_range must be a (min, max) pair, got {self.seq_len_range}")
        low, high = self.seq_len_range
        if self.users < 1:
            raise ConfigError(f"users must be >= 1, got {self.users}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.cross_corr <= 1.0:
            raise ConfigError(f"cross_corr must be in [0, 1], got {self.cross_corr}")
        if not 1 <= low <= high:
            raise ConfigError(f"seq_len_range must satisfy 1 <= min <= max, got {self.seq_len_range}")
        if self.items_per_domain < high:
            raise ConfigError(
                f"items_per_domain ({self.items_per_domain}) must cover seq_len_range max ({high})"
            )


def draw_user_interests(rng: np.random.Generator, cross_corr: float) -> tuple[np.ndarray, np.ndarray]:
    """One user's interest pair: unit-variance Gaussians with correlation
    exactly ``cross_corr`` per component (1.0 makes them identical)."""
    u_a = rng.normal(size=LATENT_DIM)
    noise = rng.normal(size=LATENT_DIM)
    u_b = cross_corr * u_a + np.sqrt(1.0 - cross_corr * cross_corr) * noise
    return u_a, u_b


def generate_synthetic(spec: SynthSpec) -> InteractionLog:
    """Draw a correlated-interest interaction log; bitwise-deterministic in seed."""
    rng = derive_rng(spec.seed, "synth")
    item_latents = {
        domain: rng.normal(size=(spec.items_per_domain, LATENT_DIM))
        for domain in (DOMAIN_A, DOMAIN_B)
    }
    users_col, items_col, domains_col, ts_col = [], [], [], []
    for user in range(spec.users):
        u_a, u_b = draw_user_interests(rng, spec.cross_corr)
        events: list[tuple[int, int]] = []
        for domain, interest in ((DOMAIN_A, u_a), (DOMAIN_B, u_b)):
            count = int(rng.integers(spec.seq_len_range[0], spec.seq_len_range[1] + 1))
            logits = item_latents[domain] @ interest / np.sqrt(LATENT_DIM) * AFFINITY_SHARPNESS
            probs = np.exp(logits - logits.max())
            probs /= probs.sum()
            drawn = rng.choice(spec.items_per_domain, size=count, p=probs)
            events.extend((domain, int(item) + 1) for item in drawn)
        order = rng.permutation(len(events))
        for ts, idx in enumerate(order, start=1):
            domain, item = events[idx]
            users_col.append(user)
            items_col.append(item)
            domains_col.append(domain)
            ts_col.append(ts)
    return InteractionLog(
        users=np.array(users_col), items=np.array(items_col),
        domains=np.array(domains_col), timestamps=np.array(ts_col),
    )


def save_log(log: InteractionLog, path: str | Path) -> None:
    """Write user/item/domain/timestamp rows as TSV, CRLF line ends."""
    rows = zip(log.users.tolist(), log.items.tolist(), log.domains.tolist(), log.timestamps.tolist())
    lines = (f"{user}\t{item}\t{DOMAIN_NAMES[domain].upper()}\t{ts}\r\n" for user, item, domain, ts in rows)
    write_atomic(path, "".join(lines))


def load_log(path: str | Path) -> InteractionLog:
    """Parse a 4-column TSV (user, item, domain, timestamp); header optional.

    Item ids are remapped to dense [1..V] per domain in first-appearance
    order; the mapping is returned as ``item_maps`` on the log and nothing is
    written. Ties in timestamp are broken by file order, then per-user
    timestamps are renumbered 1..n so the strict-increase invariant holds.
    """
    path = Path(path)
    raw_rows: list[tuple[int, int, int, int, int]] = []
    item_maps: dict[int, dict[int, int]] = {DOMAIN_A: {}, DOMAIN_B: {}}
    with path.open() as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ParseError(f"{path}:{line_no}: expected 4 tab-separated fields, got {len(parts)}")
            if line_no == 1 and not parts[0].strip().lstrip("-").isdigit():
                continue  # header row
            try:
                user = int(parts[0])
                raw_item = int(parts[1])
                domain = _DOMAIN_LABELS[parts[2].strip().upper()]
                ts = int(parts[3])
            except (ValueError, KeyError) as exc:
                raise ParseError(f"{path}:{line_no}: {exc}") from exc
            mapping = item_maps[domain]
            if raw_item not in mapping:
                mapping[raw_item] = len(mapping) + 1
            raw_rows.append((user, mapping[raw_item], domain, ts, line_no))

    if not raw_rows:
        return InteractionLog(
            users=np.zeros(0, dtype=np.int64), items=np.zeros(0, dtype=np.int64),
            domains=np.zeros(0, dtype=np.int64), timestamps=np.zeros(0, dtype=np.int64),
            item_maps=item_maps,
        )

    # Sort by (user, timestamp, file order) and renumber timestamps per user.
    raw_rows.sort(key=lambda row: (row[0], row[3], row[4]))
    users, items, domains, timestamps = [], [], [], []
    previous_user, cursor = None, 0
    for user, item, domain, _, _ in raw_rows:
        cursor = cursor + 1 if user == previous_user else 1
        previous_user = user
        users.append(user)
        items.append(item)
        domains.append(domain)
        timestamps.append(cursor)
    return InteractionLog(
        users=np.array(users), items=np.array(items),
        domains=np.array(domains), timestamps=np.array(timestamps),
        item_maps=item_maps,
    )


def save_item_maps(item_maps: dict[int, dict[int, int]], directory: str | Path) -> None:
    """Write each domain's raw -> dense item mapping as a two-column TSV,
    ``item_map_a.tsv`` and ``item_map_b.tsv``, CRLF line ends."""
    for domain, suffix in DOMAIN_NAMES.items():
        rows = "".join(f"{raw}\t{dense}\r\n" for raw, dense in item_maps[domain].items())
        write_atomic(Path(directory) / f"item_map_{suffix}.tsv", rows)


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


@dataclass
class SplitDataset:
    users: list[UserSplit]
    vocab_a: int
    vocab_b: int
    dropped_users: int = 0

    def __len__(self) -> int:
        return len(self.users)

    def vocab(self, domain: int) -> int:
        return self.vocab_a if domain == DOMAIN_A else self.vocab_b


def split_leave_one_out(log: InteractionLog, min_len: int = 3) -> SplitDataset:
    """Per-domain leave-one-out: last item tests, second-to-last validates."""
    if min_len < 3:
        raise ContractError(f"min_len must be >= 3, got {min_len}")
    survivors: list[UserSplit] = []
    dropped = 0
    # The log is sorted by user, so each user's events are one slice.
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
    if not survivors:
        raise EmptyDatasetError(f"no users with >= {min_len} interactions in both domains")
    return SplitDataset(
        users=survivors,
        vocab_a=log.vocab_size(DOMAIN_A),
        vocab_b=log.vocab_size(DOMAIN_B),
        dropped_users=dropped,
    )


def sample_excluding(vocab: int, exclude: np.ndarray | list[int], k: int, rng: np.random.Generator) -> np.ndarray:
    """k distinct uniform draws from [1..vocab] minus the ids in ``exclude``,
    an array or list that may repeat ids.

    Exclusions outside [1, vocab] are ignored. ``allowed`` is the sorted id
    list, so the draws depend only on the ids that remain.
    """
    keep = np.ones(vocab + 1, dtype=bool)
    keep[0] = False
    ids = np.asarray(exclude, dtype=np.int64)
    keep[ids[(ids >= 1) & (ids <= vocab)]] = False
    allowed = np.flatnonzero(keep).astype(np.int64, copy=False)
    if allowed.size < k:
        raise SamplingError(f"need {k} candidates but only {allowed.size} remain of vocab {vocab}")
    return rng.choice(allowed, size=k, replace=False)


def sample_negatives(dataset: SplitDataset, user_index: int, domain: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Evaluation negatives: exclude the user's full history (positive included)."""
    return sample_excluding(dataset.vocab(domain), dataset.users[user_index].sequence(domain), k, rng)


# -- batch assembly -----------------------------------------------------------

# Each stage's target sits this many places from the end of a domain
# sequence, and its input is everything before the target.
HOLDOUT = {"train": 3, "val": 2, "test": 1}


def _holdout(stage: str) -> int:
    if stage not in HOLDOUT:
        raise ContractError(f"unknown stage {stage!r}")
    return HOLDOUT[stage]


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


@dataclass
class ModelInputs:
    """Aligned per-thread batches for one list of users."""

    batch_a: SequenceBatch
    batch_b: SequenceBatch
    batch_combined: SequenceBatch | None


def build_inputs(
    dataset: SplitDataset,
    user_indices: np.ndarray,
    stage: str,
    max_len: int,
    include_combined: bool,
) -> ModelInputs:
    """Assemble input sequences for ``stage`` in {train, val, test}.

    train: inputs drop the last training item (it becomes the target).
    val:   inputs are the full training prefix; the val item is the target.
    test:  inputs are training prefix + val item; the test item is the target.
    """
    holdout = _holdout(stage)
    rows_a, rows_b, rows_c = [], [], []
    for index in user_indices:
        split = dataset.users[int(index)]
        upto_a, upto_b = split.items_a.size - holdout, split.items_b.size - holdout
        rows_a.append(split.items_a[:upto_a])
        rows_b.append(split.items_b[:upto_b])
        if include_combined:
            rows_c.append(_merge_by_time(split, upto_a, upto_b, dataset.vocab_a))
    ids_a, mask_a = _pad_rows(rows_a, max_len)
    ids_b, mask_b = _pad_rows(rows_b, max_len)
    combined = None
    if include_combined:
        ids_c, mask_c = _pad_rows(rows_c, max_len)
        combined = SequenceBatch(ids=ids_c, mask=mask_c, domain="combined")
    return ModelInputs(
        batch_a=SequenceBatch(ids=ids_a, mask=mask_a, domain="a"),
        batch_b=SequenceBatch(ids=ids_b, mask=mask_b, domain="b"),
        batch_combined=combined,
    )


def stage_targets(dataset: SplitDataset, user_indices: np.ndarray, domain: int, stage: str) -> np.ndarray:
    """The held-out positive per user for ``stage`` in {train, val, test}."""
    holdout = _holdout(stage)
    out = np.zeros(len(user_indices), dtype=np.int64)
    for row, index in enumerate(user_indices):
        out[row] = dataset.users[int(index)].sequence(domain)[-holdout]
    return out
