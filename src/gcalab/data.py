"""Synthetic cross-domain logs, TSV ingestion, leave-one-out splits, batching.

The synthetic generator uses a latent-factor model: each user draws a pair of
interest vectors whose correlation across domains is exactly ``cross_corr``,
items carry fixed latent vectors, and interactions are softmax-affinity draws.
Higher cross_corr therefore means domain-B history genuinely predicts
domain-A behavior, which is the phenomenon the experiments measure.

A split dataset is flat: per domain, one item array and one time array hold
every surviving user's events in (user, time) order, and an offsets array
marks where each user's run starts. Batches, stage targets and candidate
pools are slices and gathers of these arrays, with no loop over users.
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
_INT64_END = 1 << 63  # int64 holds [-_INT64_END, _INT64_END)


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
    draws, orders = [], []
    for _ in range(spec.users):
        u_a, u_b = draw_user_interests(rng, spec.cross_corr)
        for domain, interest in ((DOMAIN_A, u_a), (DOMAIN_B, u_b)):
            count = int(rng.integers(spec.seq_len_range[0], spec.seq_len_range[1] + 1))
            logits = item_latents[domain] @ interest / np.sqrt(LATENT_DIM) * AFFINITY_SHARPNESS
            probs = np.exp(logits - logits.max())
            probs /= probs.sum()
            # The inverse CDF that rng.choice(items, size=count, p=probs)
            # runs, without its per-call checks: same stream, same draws.
            cdf = probs.cumsum()
            cdf /= cdf[-1]
            draws.append(cdf.searchsorted(rng.random(count), side="right"))
        orders.append(rng.permutation(draws[-2].size + draws[-1].size))
    # A user's draws are its A items then its B items; its t-th event is
    # draw orders[user][t - 1].
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


def save_log(log: InteractionLog, path: str | Path) -> None:
    """Write user/item/domain/timestamp rows as TSV, CRLF line ends."""
    rows = zip(log.users.tolist(), log.items.tolist(), log.domains.tolist(), log.timestamps.tolist())
    lines = (f"{user}\t{item}\t{DOMAIN_NAMES[domain].upper()}\t{ts}\r\n" for user, item, domain, ts in rows)
    write_atomic(path, "".join(lines))


def load_log(path: str | Path, raw: bytes | None = None) -> InteractionLog:
    """Parse a UTF-8 4-column TSV (user, item, domain, timestamp), a leading
    BOM allowed; header optional. ``raw``, when given, holds the file's
    bytes, and the file is not read; ``path`` then only names it in errors.

    The first non-blank line is a header exactly when its user field is not
    an integer. Item ids are remapped to dense [1..V] per domain in
    first-appearance order; the mapping is returned as ``item_maps`` on the
    log and nothing is written. Ties in timestamp are broken by file order,
    then per-user timestamps are renumbered 1..n so the strict-increase
    invariant holds.
    """
    path = Path(path)
    raw_rows: list[tuple[int, int, int, int, int]] = []
    item_maps: dict[int, dict[int, int]] = {DOMAIN_A: {}, DOMAIN_B: {}}
    first_line = None
    try:
        text = (path.read_bytes() if raw is None else raw).decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ParseError(f"{path}:{line_no}: expected 4 tab-separated fields, got {len(parts)}")
        first_line = first_line or line_no
        try:
            user = int(parts[0])
        except ValueError as exc:
            if line_no == first_line:
                continue  # header row
            raise ParseError(f"{path}:{line_no}: {exc}") from exc
        try:
            raw_item = int(parts[1])
            domain = _DOMAIN_LABELS[parts[2].strip().upper()]
            ts = int(parts[3])
        except (ValueError, KeyError) as exc:
            raise ParseError(f"{path}:{line_no}: {exc}") from exc
        if not (-_INT64_END <= user < _INT64_END and -_INT64_END <= ts < _INT64_END):
            raise ParseError(f"{path}:{line_no}: user and timestamp must fit in 64 bits")
        mapping = item_maps[domain]
        if raw_item not in mapping:
            mapping[raw_item] = len(mapping) + 1
        raw_rows.append((user, mapping[raw_item], domain, ts, line_no))

    users, items, domains, ts, line_nos = np.array(raw_rows, dtype=np.int64).reshape(-1, 5).T
    # Sort by (user, timestamp, file order) and renumber timestamps per user.
    order = np.lexsort((line_nos, ts, users))
    users = users[order]
    _, starts, counts = np.unique(users, return_index=True, return_counts=True)
    return InteractionLog(
        users=users, items=items[order], domains=domains[order],
        timestamps=np.arange(1, users.size + 1) - np.repeat(starts, counts),
        item_maps=item_maps,
    )


def save_item_maps(item_maps: dict[int, dict[int, int]], directory: str | Path) -> None:
    """Write each domain's raw -> dense item mapping as a two-column TSV,
    ``item_map_a.tsv`` and ``item_map_b.tsv``, CRLF line ends."""
    for domain, suffix in DOMAIN_NAMES.items():
        rows = "".join(f"{raw}\t{dense}\r\n" for raw, dense in item_maps[domain].items())
        write_atomic(Path(directory) / f"item_map_{suffix}.tsv", rows)


@dataclass
class SplitDataset:
    """The surviving users' sequences, flat, per domain (indexed by DOMAIN_A
    and DOMAIN_B): ``items[d]`` and ``times[d]`` hold every user's events of
    domain d in (user, time) order, and user i's run of them is
    ``offsets[d][i]:offsets[d][i + 1]``. ``user_ids[i]`` is user i's id in
    the log. The last item of a run is its test item, the one before it its
    validation item (see HOLDOUT)."""

    user_ids: np.ndarray
    items: tuple[np.ndarray, np.ndarray]
    times: tuple[np.ndarray, np.ndarray]
    offsets: tuple[np.ndarray, np.ndarray]
    vocab_a: int
    vocab_b: int
    dropped_users: int = 0

    def __len__(self) -> int:
        return int(self.user_ids.shape[0])

    def vocab(self, domain: int) -> int:
        return self.vocab_a if domain == DOMAIN_A else self.vocab_b

    def sequence(self, index: int, domain: int) -> np.ndarray:
        """User ``index``'s items in ``domain``, oldest first."""
        offsets = self.offsets[domain]
        return self.items[domain][offsets[index] : offsets[index + 1]]

    def most_distinct(self, domain: int) -> int:
        """The most distinct items any one user holds in ``domain``."""
        span = self.vocab(domain) + 1
        owner = np.repeat(np.arange(len(self)), np.diff(self.offsets[domain]))
        pairs = np.unique(owner * span + self.items[domain])
        return int(np.bincount(pairs // span).max())


def split_leave_one_out(log: InteractionLog, min_len: int = 3) -> SplitDataset:
    """Per-domain leave-one-out: last item tests, second-to-last validates.

    A user survives with at least ``min_len`` events in each domain."""
    if min_len < 3:
        raise ContractError(f"min_len must be >= 3, got {min_len}")
    user_ids, owner = np.unique(log.users, return_inverse=True)
    in_domain = [log.domains == domain for domain in (DOMAIN_A, DOMAIN_B)]
    counts = [np.bincount(owner[rows], minlength=user_ids.size) for rows in in_domain]
    keep = (counts[DOMAIN_A] >= min_len) & (counts[DOMAIN_B] >= min_len)
    if not keep.any():
        raise EmptyDatasetError(f"no users with >= {min_len} interactions in both domains")
    # The log is sorted by (user, time), so a mask keeps each run in order.
    picked = [rows & keep[owner] for rows in in_domain]
    return SplitDataset(
        user_ids=user_ids[keep],
        items=tuple(log.items[rows] for rows in picked),
        times=tuple(log.timestamps[rows] for rows in picked),
        offsets=tuple(np.concatenate(([0], np.cumsum(count[keep]))) for count in counts),
        vocab_a=log.vocab_size(DOMAIN_A),
        vocab_b=log.vocab_size(DOMAIN_B),
        dropped_users=int(user_ids.size - keep.sum()),
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
    return sample_excluding(dataset.vocab(domain), dataset.sequence(user_index, domain), k, rng)


# -- batch assembly -----------------------------------------------------------

# Each stage's target sits this many places from the end of a domain
# sequence, and its input is everything before the target.
HOLDOUT = {"train": 3, "val": 2, "test": 1}


def _holdout(stage: str) -> int:
    if stage not in HOLDOUT:
        raise ContractError(f"unknown stage {stage!r}")
    return HOLDOUT[stage]


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

    Each row keeps its last ``max_len`` inputs, left-packed and padded to
    the longest row. The combined thread interleaves both domains' inputs
    by time, B items offset past A's vocabulary (A first on a tie).
    """
    holdout = _holdout(stage)
    rows = np.asarray(user_indices, dtype=np.int64)
    # Per thread: the flat values, and each row's end and length in them.
    threads = {}
    for domain, name in DOMAIN_NAMES.items():
        offsets = dataset.offsets[domain]
        ends = offsets[rows + 1] - holdout
        threads[name] = (dataset.items[domain], ends, ends - offsets[rows])
    if include_combined:
        row_of, items, times = [], [], []
        for domain, name in DOMAIN_NAMES.items():
            _, ends, lengths = threads[name]
            row_of.append(np.repeat(np.arange(rows.size), lengths))
            index = np.arange(lengths.sum()) + np.repeat(ends - np.cumsum(lengths), lengths)
            items.append(dataset.items[domain][index] + (dataset.vocab_a if domain == DOMAIN_B else 0))
            times.append(dataset.times[domain][index])
        # lexsort is stable: on a time tie the A event, listed first, stays first.
        order = np.lexsort((np.concatenate(times), np.concatenate(row_of)))
        lengths = threads["a"][2] + threads["b"][2]
        threads["combined"] = (np.concatenate(items)[order], np.cumsum(lengths), lengths)
    batches = {}
    for name, (values, ends, lengths) in threads.items():
        width = max(1, min(max_len, int(lengths.max(initial=0))))
        kept = np.minimum(lengths, width)
        mask = np.arange(width) < kept[:, None]
        ids = np.zeros(mask.shape, dtype=np.int64)
        row, col = np.nonzero(mask)
        ids[row, col] = values[(ends - kept)[row] + col]
        batches[name] = SequenceBatch(ids=ids, mask=mask, domain=name)
    return ModelInputs(batch_a=batches["a"], batch_b=batches["b"], batch_combined=batches.get("combined"))


def stage_targets(dataset: SplitDataset, user_indices: np.ndarray, domain: int, stage: str) -> np.ndarray:
    """The held-out positive per user for ``stage`` in {train, val, test}."""
    holdout = _holdout(stage)
    rows = np.asarray(user_indices, dtype=np.int64)
    return dataset.items[domain][dataset.offsets[domain][rows + 1] - holdout]
