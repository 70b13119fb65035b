"""Metric tests: exhaustive ranking oracles, closed-form pearson, probes."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
import scipy.stats

from gcalab.errors import ContractError, UndefinedCorrelationError
from gcalab.metrics import (
    METRIC_FIELDS,
    AggregateSummary,
    MetricsRecord,
    aggregate_over_seeds,
    auc,
    cosine_probe_update,
    five_number_summary,
    masked_abs_cosine,
    ndcg_at_k,
    pearson_r,
)


def oracle_rank(scores, positive_index):
    """Selection-sort ranking with the documented tie rule: lower index wins."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return order.index(positive_index) + 1


def oracle_ndcg(scores, positive_index, k):
    rank = oracle_rank(scores, positive_index)
    return 1.0 / math.log2(1.0 + rank) if rank <= k else 0.0


def oracle_auc(scores, positive_index):
    pos = scores[positive_index]
    total = 0.0
    count = 0
    for j, s in enumerate(scores):
        if j == positive_index:
            continue
        count += 1
        if s < pos:
            total += 1.0
        elif s == pos:
            total += 0.5
    return total / count


def all_candidate_lists():
    """Every ordering/tie pattern up to c=5, dense tie alphabets, plus random c=6..8."""
    for c in range(1, 6):
        for perm in itertools.permutations(range(c)):
            yield [float(v) for v in perm]
        for values in itertools.product((0.0, 1.0, 2.0), repeat=c):
            yield list(values)
    rng = np.random.default_rng(99)
    for c in (6, 7, 8):
        for _ in range(150):
            yield list(rng.normal(size=c))


class TestNdcg:
    def test_rank_one_is_perfect(self):
        assert ndcg_at_k(np.array([5.0, 1.0, 0.0]), 0, 10) == 1.0

    def test_rank_two_frozen_value(self):
        # 1/log2(3) for a positive at rank 2.
        got = ndcg_at_k(np.array([2.0, 5.0, 0.0]), 0, 10)
        assert got == pytest.approx(0.6309297535714575, abs=1e-15)

    def test_outside_cutoff_is_zero(self):
        scores = np.arange(12.0)  # positive at index 0 ranks 12th
        assert ndcg_at_k(scores, 0, 10) == 0.0
        assert ndcg_at_k(scores, 1, 10) == 0.0

    def test_tie_break_by_lower_index(self):
        scores = np.array([1.0, 1.0, 1.0])
        assert ndcg_at_k(scores, 0, 1) == 1.0  # wins its ties
        assert ndcg_at_k(scores, 2, 2) == 0.0  # loses both ties, rank 3
        assert ndcg_at_k(scores, 1, 2) == pytest.approx(1.0 / math.log2(3.0))

    def test_k_validation(self):
        with pytest.raises(ContractError):
            ndcg_at_k(np.array([1.0, 0.0]), 0, 0)
        with pytest.raises(ContractError):
            ndcg_at_k(np.array([1.0, 0.0]), 2, 1)

    def test_accepts_tensor_input(self):
        from gcalab.tensor import Tensor

        assert ndcg_at_k(Tensor(np.array([3.0, 1.0])), 0, 1) == 1.0


class TestAuc:
    def test_positive_highest(self):
        assert auc(np.array([9.0, 1.0, 2.0]), 0) == 1.0

    def test_all_ties(self):
        assert auc(np.ones(5), 2) == 0.5

    def test_worked_example(self):
        assert auc(np.array([0.5, 0.7, 0.3, 0.1]), 0) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_needs_two_candidates(self):
        with pytest.raises(ContractError):
            auc(np.array([1.0]), 0)


def test_ranking_metrics_match_exhaustive_oracle():
    checked = 0
    for scores in all_candidate_lists():
        c = len(scores)
        arr = np.array(scores)
        for pos in range(c):
            for k in (1, 3, 10):
                assert ndcg_at_k(arr, pos, k) == oracle_ndcg(scores, pos, k)
            if c >= 2:
                assert auc(arr, pos) == oracle_auc(scores, pos)
        checked += 1
    assert checked > 500


class TestBatchedRanks:
    def random_matrices(self):
        """Score matrices with heavy ties (a three-level alphabet, eval-sized
        lists of a few distinct values) and without (normal scores)."""
        rng = np.random.default_rng(2024)
        for _ in range(300):
            batch = int(rng.integers(1, 12))
            count = int(rng.integers(2, 30))
            kind = rng.integers(3)
            if kind == 0:
                matrix = rng.choice([-1.0, 0.0, 2.5], size=(batch, count))
            elif kind == 1:
                matrix = rng.integers(0, 3, size=(batch, 100)).astype(np.float64)
            else:
                matrix = rng.normal(size=(batch, count))
            yield matrix, int(rng.integers(matrix.shape[1]))

    def test_matrix_matches_per_row_definition_bitwise(self):
        ties = 0
        nonzero = 0
        for matrix, positive in self.random_matrices():
            ties += int((matrix == matrix[:, positive : positive + 1]).sum() > matrix.shape[0])
            nonzero += positive > 0
            for k in (1, 3, 10):
                batched = ndcg_at_k(matrix, positive, k)
                assert batched.shape == (matrix.shape[0],)
                assert batched.tolist() == [oracle_ndcg(row.tolist(), positive, k) for row in matrix]
                assert batched.tolist() == [ndcg_at_k(row, positive, k) for row in matrix]
            batched = auc(matrix, positive)
            assert batched.tolist() == [oracle_auc(row.tolist(), positive) for row in matrix]
            assert batched.tolist() == [auc(row, positive) for row in matrix]
        assert ties > 100 and nonzero > 100

    def test_one_row_gives_a_float(self):
        assert type(ndcg_at_k(np.array([1.0, 2.0]), 1, 10)) is float
        assert type(auc(np.array([1.0, 2.0]), 1)) is float

    def test_matrix_validation_uses_last_axis(self):
        with pytest.raises(ContractError):
            ndcg_at_k(np.zeros((4, 3)), 3, 1)
        with pytest.raises(ContractError):
            auc(np.zeros((4, 1)), 0)


class TestPearson:
    def test_perfect_correlations(self):
        xs = [1.0, 2.0, 5.0, 7.0]
        assert pearson_r(xs, xs) == pytest.approx(1.0, abs=1e-15)
        assert pearson_r(xs, [-v for v in xs]) == pytest.approx(-1.0, abs=1e-15)

    def test_closed_form_example(self):
        # For xs=[1,2,3], ys=[1,2,4]: r = 3 / (sqrt(2) * sqrt(42)/3) = 9/sqrt(84).
        assert pearson_r([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) == pytest.approx(
            9.0 / math.sqrt(84.0), abs=1e-12
        )

    def test_matches_scipy(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            xs = rng.normal(size=30)
            ys = 0.4 * xs + rng.normal(size=30)
            want = scipy.stats.pearsonr(xs, ys).statistic
            assert pearson_r(xs, ys) == pytest.approx(want, abs=1e-12)

    def test_affine_invariance_positive_slope(self):
        rng = np.random.default_rng(8)
        xs = rng.normal(size=25)
        ys = rng.normal(size=25)
        base = pearson_r(xs, ys)
        for _ in range(10):
            a, b = rng.normal(), rng.uniform(0.1, 5.0)
            assert pearson_r(a + b * xs, ys) == pytest.approx(base, abs=1e-12)
            assert pearson_r(xs, a + b * ys) == pytest.approx(base, abs=1e-12)

    def test_degenerate_inputs(self):
        with pytest.raises(ContractError):
            pearson_r([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(UndefinedCorrelationError):
            pearson_r([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


class TestCosineProbeMath:
    def test_identical_rows_give_one(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 3, 4))
        mask = np.ones((2, 3), dtype=bool)
        total, count = masked_abs_cosine(x, x.copy(), mask)
        assert count == 6
        assert total / count == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_rows_give_zero(self):
        x = np.zeros((1, 2, 2))
        y = np.zeros((1, 2, 2))
        x[0, :, 0] = [1.0, 2.0]
        y[0, :, 1] = [3.0, -1.0]
        total, count = masked_abs_cosine(x, y, np.ones((1, 2), dtype=bool))
        assert total == 0.0 and count == 2

    def test_abs_then_average_mixed_signs(self):
        # cosines +0.6 and -0.6 average to 0.6 under abs-then-average.
        x = np.array([[[1.0, 0.0], [1.0, 0.0]]])
        y = np.array([[[0.6, 0.8], [-0.6, 0.8]]])
        total, count = masked_abs_cosine(x, y, np.ones((1, 2), dtype=bool))
        assert total / count == pytest.approx(0.6, abs=1e-12)

    def test_zero_norm_contributes_zero_but_counts(self):
        x = np.array([[[1.0, 0.0], [0.0, 0.0]]])
        y = np.array([[[1.0, 0.0], [1.0, 1.0]]])
        total, count = masked_abs_cosine(x, y, np.ones((1, 2), dtype=bool))
        assert count == 2
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(3, 4, 5))
        y = rng.normal(size=(3, 4, 5))
        mask = rng.random((3, 4)) < 0.8
        mask[:, 0] = True
        base_total, base_count = masked_abs_cosine(x, y, mask)
        scales_x = rng.uniform(0.01, 100.0, size=(3, 4, 1))
        scales_y = rng.uniform(0.01, 100.0, size=(3, 4, 1))
        total, count = masked_abs_cosine(x * scales_x, y * scales_y, mask)
        assert count == base_count
        assert total == pytest.approx(base_total, abs=1e-12)

    def test_mask_selects_positions(self):
        x = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        y = np.array([[[1.0, 0.0], [1.0, 0.0]]])
        mask = np.array([[True, False]])
        total, count = masked_abs_cosine(x, y, mask)
        assert (total, count) == (1.0, 1)

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            masked_abs_cosine(np.zeros((1, 2, 3)), np.zeros((1, 2, 4)), np.ones((1, 2), bool))
        with pytest.raises(ContractError):
            masked_abs_cosine(np.zeros((1, 2, 3)), np.zeros((1, 2, 3)), np.ones((2, 2), bool))


class TestProbeUpdate:
    class _Stub:
        def __init__(self):
            self.calls = []

        def accumulate(self, channel, total, weight):
            self.calls.append((channel, total, weight))

    def test_all_masked_is_noop(self):
        probe = self._Stub()
        cosine_probe_update(probe, np.ones((1, 2, 3)), np.ones((1, 2, 3)), np.zeros((1, 2), bool))
        assert probe.calls == []

    def test_accumulates_weighted_sum(self):
        probe = self._Stub()
        x = np.ones((2, 2, 3))
        cosine_probe_update(probe, x, x, np.ones((2, 2), bool))
        [(channel, total, weight)] = probe.calls
        assert channel == "xxprime"
        assert weight == 4
        assert total == pytest.approx(4.0, abs=1e-12)


class TestFiveNumberSummary:
    def test_even_length_oracle(self):
        s = five_number_summary([4.0, 1.0, 3.0, 2.0])
        assert s == {"min": 1.0, "q1": 1.75, "median": 2.5, "q3": 3.25, "max": 4.0}

    def test_odd_length_oracle(self):
        s = five_number_summary([5.0, 1.0, 2.0, 4.0, 3.0])
        assert s == {"min": 1.0, "q1": 2.0, "median": 3.0, "q3": 4.0, "max": 5.0}

    def test_single_value(self):
        s = five_number_summary([2.5])
        assert all(v == 2.5 for v in s.values())

    def test_matches_sort_based_oracle(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 7, 10, 101):
            values = rng.normal(size=n)
            s = five_number_summary(values)
            data = np.sort(values)
            for key, q in (("q1", 0.25), ("median", 0.5), ("q3", 0.75)):
                position = q * (n - 1)
                lo, hi = int(np.floor(position)), int(np.ceil(position))
                want = data[lo] + (position - lo) * (data[hi] - data[lo])
                assert s[key] == pytest.approx(want, abs=1e-12)
            assert s["min"] == data[0] and s["max"] == data[-1]

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            five_number_summary([])


def make_record(config_id="cfg", seed=0, **overrides):
    payload = dict(
        config_id=config_id, seed=seed,
        ndcg1_a=0.1, ndcg1_b=0.2, ndcg10_a=0.3, ndcg10_b=0.4,
        auc_a=0.5, auc_b=0.6, cos_xxprime_a=0.11, cos_xxprime_b=0.12,
        cos_xy_a=0.13, cos_xy_b=0.14, param_count=1000, epoch_of_best=3,
    )
    payload.update(overrides)
    return MetricsRecord(**payload)


class TestMetricsRecord:
    def test_range_validation(self):
        with pytest.raises(ContractError):
            make_record(ndcg10_a=1.5)
        with pytest.raises(ContractError):
            make_record(auc_b=-0.01)
        with pytest.raises(ContractError):
            make_record(param_count=0)

    def test_dict_roundtrip(self):
        record = make_record(seed=7)
        assert MetricsRecord.from_dict(record.to_dict()) == record


class TestAggregation:
    def test_single_record(self):
        record = make_record()
        summary = aggregate_over_seeds([record])
        assert summary.count == 1
        assert summary.mean["ndcg10_a"] == record.ndcg10_a
        assert all(v == 0.0 for v in summary.sd.values())

    def test_symmetric_pair_mean(self):
        low = make_record(seed=1, ndcg10_a=0.3)
        high = make_record(seed=2, ndcg10_a=0.5)
        summary = aggregate_over_seeds([low, high])
        assert summary.mean["ndcg10_a"] == pytest.approx(0.4, abs=1e-15)
        assert summary.sd["ndcg10_a"] == pytest.approx(0.1, abs=1e-15)

    def test_matches_direct_statistics(self):
        rng = np.random.default_rng(12)
        records = [
            make_record(seed=i, ndcg10_a=float(v), auc_a=float(w))
            for i, (v, w) in enumerate(zip(rng.uniform(size=5), rng.uniform(size=5)))
        ]
        summary = aggregate_over_seeds(records)
        for name in ("ndcg10_a", "auc_a"):
            column = np.array([getattr(r, name) for r in records])
            assert summary.mean[name] == pytest.approx(column.mean(), abs=1e-15)
            assert summary.sd[name] == pytest.approx(column.std(), abs=1e-15)

    def test_rejects_empty_and_mixed(self):
        with pytest.raises(ContractError):
            aggregate_over_seeds([])
        with pytest.raises(ContractError):
            aggregate_over_seeds([make_record(config_id="x"), make_record(config_id="y")])


def test_randomized_outputs_stay_in_range():
    # 10k-case property sweep across the three metric families.
    rng = np.random.default_rng(13)
    for _ in range(4000):
        c = int(rng.integers(2, 12))
        scores = rng.normal(size=c)
        pos = int(rng.integers(0, c))
        assert 0.0 <= ndcg_at_k(scores, pos, int(rng.integers(1, 12))) <= 1.0
        assert 0.0 <= auc(scores, pos) <= 1.0
    for _ in range(2000):
        shape = (int(rng.integers(1, 3)), int(rng.integers(1, 4)), int(rng.integers(2, 5)))
        x = rng.normal(size=shape)
        y = rng.normal(size=shape)
        mask = rng.random(shape[:2]) < 0.7
        total, count = masked_abs_cosine(x, y, mask)
        if count:
            assert 0.0 <= total / count <= 1.0 + 1e-12
