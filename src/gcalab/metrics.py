"""Ranking metrics, cosine probes, correlation, and per-config aggregation.

Everything here is a pure function except the probe update, which appends to
a caller-owned accumulator. Ties in ranking are broken by candidate index so
a seed fully determines every metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ContractError, UndefinedCorrelationError

METRIC_FIELDS = (
    "ndcg1_a",
    "ndcg1_b",
    "ndcg10_a",
    "ndcg10_b",
    "auc_a",
    "auc_b",
    "cos_xxprime_a",
    "cos_xxprime_b",
    "cos_xy_a",
    "cos_xy_b",
)

# The fields averaged over seeds, in the roll-up table's column order.
AGGREGATED_FIELDS = METRIC_FIELDS + ("param_count", "epoch_of_best")

# Fixed CSV column order for records.
RECORD_COLUMNS = ("config_id", "seed") + AGGREGATED_FIELDS


@dataclass(frozen=True)
class MetricsRecord:
    """One run's test-time metrics, immutable once emitted."""

    config_id: str
    seed: int
    ndcg1_a: float
    ndcg1_b: float
    ndcg10_a: float
    ndcg10_b: float
    auc_a: float
    auc_b: float
    cos_xxprime_a: float
    cos_xxprime_b: float
    cos_xy_a: float
    cos_xy_b: float
    param_count: int
    epoch_of_best: int

    def __post_init__(self):
        for name in METRIC_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ContractError(f"{name}={value} outside [0, 1]")
        if self.param_count <= 0:
            raise ContractError(f"param_count must be positive, got {self.param_count}")

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in RECORD_COLUMNS}

    @classmethod
    def from_dict(cls, payload: dict) -> "MetricsRecord":
        kwargs = {f.name: payload[f.name] for f in fields(cls)}
        return cls(**kwargs)


def _scores_array(scores) -> np.ndarray:
    data = getattr(scores, "data", scores)
    return np.asarray(data, dtype=np.float64)


def _check_positive(values: np.ndarray, positive_index: int) -> None:
    if not 0 <= positive_index < values.shape[-1]:
        raise ContractError(f"positive_index {positive_index} outside candidate list of {values.shape[-1]}")


def _rank_of_positive(values: np.ndarray, positive_index: int) -> np.ndarray:
    """1-based rank along the last axis under descending score, ties going to
    the lower index: count(higher) + count(tied before) + 1."""
    pos = values[..., positive_index : positive_index + 1]
    higher = (values > pos).sum(axis=-1)
    tied_before = (values[..., :positive_index] == pos).sum(axis=-1)
    return higher + tied_before + 1


def _per_list(values: np.ndarray, out: np.ndarray):
    """A float for one candidate list, a [B] array for a [B, n] matrix."""
    return float(out) if values.ndim == 1 else out


def ndcg_at_k(scores, positive_index: int, k: int):
    """DCG of the single positive: 1/log2(1+rank) within the cutoff, else 0.

    ``scores`` is one candidate list [n] (gives a float) or a matrix [B, n]
    of lists (gives a [B] array).
    """
    values = _scores_array(scores)
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    _check_positive(values, positive_index)
    rank = _rank_of_positive(values, positive_index)
    gains = np.array([0.0] + [1.0 / math.log2(1.0 + r) for r in range(1, k + 1)])
    return _per_list(values, gains[np.where(rank <= k, rank, 0)])


def auc(scores, positive_index: int):
    """Fraction of negatives scored strictly below the positive; ties count half.

    ``scores`` is one candidate list [n] (gives a float) or a matrix [B, n]
    of lists (gives a [B] array).
    """
    values = _scores_array(scores)
    count = values.shape[-1]
    if count < 2:
        raise ContractError(f"auc needs at least 2 candidates, got {count}")
    _check_positive(values, positive_index)
    pos = values[..., positive_index : positive_index + 1]
    negatives = np.delete(values, positive_index, axis=-1)
    below = (negatives < pos).sum(axis=-1)
    tied = (negatives == pos).sum(axis=-1)
    return _per_list(values, (below + 0.5 * tied) / negatives.shape[-1])


def masked_abs_cosine(x, xprime, mask: np.ndarray) -> tuple[float, int]:
    """Sum and count of per-position |cosine| over unmasked (batch, pos) pairs.

    A position where either vector has zero norm contributes 0 to the sum but
    still counts: no representation is treated as maximally uninformative.
    """
    xd = np.asarray(getattr(x, "data", x), dtype=np.float64)
    yd = np.asarray(getattr(xprime, "data", xprime), dtype=np.float64)
    if xd.shape != yd.shape:
        raise ContractError(f"cosine inputs must share shape, got {xd.shape} vs {yd.shape}")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != xd.shape[:-1]:
        raise ContractError(f"mask {mask.shape} does not cover positions {xd.shape[:-1]}")
    if not mask.any():
        return 0.0, 0
    dots = (xd * yd).sum(axis=-1)
    nx = np.linalg.norm(xd, axis=-1)
    ny = np.linalg.norm(yd, axis=-1)
    norms = nx * ny
    cos = np.zeros_like(dots)
    live = norms > 0.0
    cos[live] = dots[live] / norms[live]
    total = float(np.abs(cos)[mask].sum())
    return total, int(mask.sum())


def cosine_probe_update(probe, x, xprime, mask: np.ndarray, channel: str = "xxprime") -> None:
    """Accumulate the batch's mean |cosine| into ``probe``; all-masked is a no-op."""
    total, count = masked_abs_cosine(x, xprime, mask)
    if count == 0:
        return
    probe.accumulate(channel, total, count)


def pearson_r(xs, ys) -> float:
    """Sample Pearson correlation; degenerate variance raises."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ContractError(f"pearson_r needs two equal-length 1-d inputs, got {x.shape} and {y.shape}")
    if x.size < 3:
        raise ContractError(f"pearson_r needs at least 3 points, got {x.size}")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = np.sqrt((xc * xc).sum())
    sy = np.sqrt((yc * yc).sum())
    if sx == 0.0 or sy == 0.0:
        raise UndefinedCorrelationError("zero variance on one side")
    return float(np.clip((xc * yc).sum() / (sx * sy), -1.0, 1.0))


def five_number_summary(values) -> dict[str, float]:
    """min, q1, median, q3, max with linear quantile interpolation."""
    data = np.sort(np.asarray(values, dtype=np.float64))
    if data.size == 0:
        raise ContractError("five_number_summary needs at least one value")

    def quantile(q: float) -> float:
        position = q * (data.size - 1)
        low = int(np.floor(position))
        high = int(np.ceil(position))
        frac = position - low
        return float(data[low] * (1.0 - frac) + data[high] * frac)

    return {
        "min": float(data[0]),
        "q1": quantile(0.25),
        "median": quantile(0.5),
        "q3": quantile(0.75),
        "max": float(data[-1]),
    }


@dataclass(frozen=True)
class AggregateSummary:
    config_id: str
    count: int
    mean: dict[str, float]
    sd: dict[str, float]


def aggregate_over_seeds(records: list[MetricsRecord]) -> AggregateSummary:
    """Mean and population sd per metric over one config's seed runs."""
    if not records:
        raise ContractError("aggregate_over_seeds needs at least one record")
    config_ids = {r.config_id for r in records}
    if len(config_ids) != 1:
        raise ContractError(f"records span multiple configs: {sorted(config_ids)}")
    mean: dict[str, float] = {}
    sd: dict[str, float] = {}
    for name in AGGREGATED_FIELDS:
        column = np.array([getattr(r, name) for r in records], dtype=np.float64)
        mean[name] = float(column.mean())
        sd[name] = float(column.std())
    return AggregateSummary(config_id=records[0].config_id, count=len(records), mean=mean, sd=sd)
