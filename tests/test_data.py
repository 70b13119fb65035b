"""Tests for synthetic generation, TSV ingestion, splits, and batching."""

import numpy as np
import pytest
from scipy import stats

import loop_reference
from gcalab.data import (
    DOMAIN_A,
    DOMAIN_B,
    HOLDOUT,
    InteractionLog,
    SynthSpec,
    build_inputs,
    draw_user_interests,
    generate_synthetic,
    load_log,
    sample_excluding,
    sample_negatives,
    save_log,
    split_leave_one_out,
    stage_targets,
)
from gcalab.errors import (
    ConfigError,
    ContractError,
    EmptyDatasetError,
    ParseError,
    SamplingError,
)
from gcalab.runner import RunSpec, load_dataset


def small_spec(**overrides):
    base = dict(users=40, items_per_domain=30, cross_corr=0.5, seq_len_range=(3, 8), seed=7)
    base.update(overrides)
    return SynthSpec(**base)


# -- log validation ------------------------------------------------------------


class TestInteractionLog:
    def test_rejects_unequal_columns(self):
        with pytest.raises(ContractError, match="equal length"):
            InteractionLog(users=[0, 0], items=[1], domains=[0, 0], timestamps=[1, 2])

    def test_rejects_item_zero(self):
        with pytest.raises(ContractError, match="padding"):
            InteractionLog(users=[0], items=[0], domains=[0], timestamps=[1])

    def test_rejects_unknown_domain(self):
        with pytest.raises(ContractError, match="domains"):
            InteractionLog(users=[0], items=[1], domains=[2], timestamps=[1])

    def test_rejects_unsorted_users(self):
        with pytest.raises(ContractError, match="sorted"):
            InteractionLog(users=[1, 0], items=[1, 1], domains=[0, 0], timestamps=[1, 1])

    def test_rejects_duplicate_timestamps_within_user(self):
        with pytest.raises(ContractError, match="strictly increasing"):
            InteractionLog(users=[0, 0], items=[1, 2], domains=[0, 1], timestamps=[3, 3])

    def test_vocab_size_is_max_item_per_domain(self):
        log = InteractionLog(
            users=[0, 0, 0], items=[5, 2, 9], domains=[0, 1, 1], timestamps=[1, 2, 3]
        )
        assert log.vocab_size(DOMAIN_A) == 5
        assert log.vocab_size(DOMAIN_B) == 9

    def test_empty_log_is_valid(self):
        log = InteractionLog(users=[], items=[], domains=[], timestamps=[])
        assert len(log) == 0
        assert log.vocab_size(DOMAIN_A) == 0


class TestSynthSpec:
    def test_rejects_bad_corr(self):
        with pytest.raises(ConfigError, match="cross_corr"):
            small_spec(cross_corr=1.5)

    def test_rejects_bad_length_range(self):
        with pytest.raises(ConfigError, match="seq_len_range"):
            small_spec(seq_len_range=(5, 4))

    def test_rejects_length_range_not_a_pair(self):
        with pytest.raises(ConfigError, match="seq_len_range must be a"):
            small_spec(seq_len_range=(3, 5, 8))

    def test_rejects_vocab_smaller_than_longest_sequence(self):
        with pytest.raises(ConfigError, match="items_per_domain"):
            small_spec(items_per_domain=5, seq_len_range=(3, 8))


# -- correlated interests --------------------------------------------------------


class TestInterestCorrelation:
    """The generator's correlation knob must mean what it says.

    Oracle: empirical Pearson correlation between matching components of the
    two interest vectors over many users, checked against the requested value.
    """

    @staticmethod
    def empirical_corr(cross_corr, n_users=4000, seed=123):
        rng = np.random.default_rng(seed)
        pairs = np.array([np.stack(draw_user_interests(rng, cross_corr)) for _ in range(n_users)])
        flat_a = pairs[:, 0, :].ravel()
        flat_b = pairs[:, 1, :].ravel()
        return float(np.corrcoef(flat_a, flat_b)[0, 1])

    def test_corr_one_is_exact_equality(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            u_a, u_b = draw_user_interests(rng, 1.0)
            np.testing.assert_array_equal(u_a, u_b)

    def test_corr_zero_is_near_zero(self):
        assert abs(self.empirical_corr(0.0)) < 0.1

    @pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
    def test_corr_tracks_requested_value(self, rho):
        assert self.empirical_corr(rho) == pytest.approx(rho, abs=0.05)

    def test_corr_is_monotone_in_rho(self):
        estimates = [self.empirical_corr(rho) for rho in (0.0, 0.5, 1.0)]
        assert estimates[0] < estimates[1] < estimates[2]

    def test_marginal_variance_is_preserved(self):
        # u_b must stay unit-variance for every rho, or sharpness would drift.
        rng = np.random.default_rng(9)
        draws = np.array([draw_user_interests(rng, 0.5)[1] for _ in range(4000)])
        assert float(draws.var()) == pytest.approx(1.0, abs=0.08)


class TestGenerateSynthetic:
    def test_deterministic_in_seed(self):
        first = generate_synthetic(small_spec())
        second = generate_synthetic(small_spec())
        np.testing.assert_array_equal(first.users, second.users)
        np.testing.assert_array_equal(first.items, second.items)
        np.testing.assert_array_equal(first.domains, second.domains)
        np.testing.assert_array_equal(first.timestamps, second.timestamps)

    def test_different_seeds_differ(self):
        first = generate_synthetic(small_spec())
        second = generate_synthetic(small_spec(seed=8))
        same = len(first) == len(second) and bool(np.array_equal(first.items, second.items))
        assert not same

    def test_user_count_and_domain_lengths(self):
        spec = small_spec()
        log = generate_synthetic(spec)
        assert log.user_ids().tolist() == list(range(spec.users))
        low, high = spec.seq_len_range
        for user in log.user_ids():
            rows = log.users == user
            for domain in (DOMAIN_A, DOMAIN_B):
                count = int((log.domains[rows] == domain).sum())
                assert low <= count <= high

    def test_items_within_vocab(self):
        spec = small_spec()
        log = generate_synthetic(spec)
        assert log.items.min() >= 1
        assert log.items.max() <= spec.items_per_domain

    def test_timestamps_are_contiguous_per_user(self):
        log = generate_synthetic(small_spec())
        for user in log.user_ids():
            ts = log.timestamps[log.users == user]
            np.testing.assert_array_equal(ts, np.arange(1, ts.size + 1))

    @pytest.mark.parametrize("spec", [
        small_spec(),
        small_spec(users=25, seq_len_range=(5, 5), seed=2),
        small_spec(users=1, cross_corr=0.0, seed=4),
        small_spec(users=60, items_per_domain=12, cross_corr=1.0, seq_len_range=(1, 12), seed=9),
        SynthSpec(users=500, items_per_domain=200, cross_corr=0.7, seq_len_range=(3, 10), seed=1),
    ], ids=["small", "fixed-length", "one-user-uncorrelated", "identical-interests", "smoke"])
    def test_equals_the_choice_reference_byte_for_byte(self, spec):
        got, want = generate_synthetic(spec), loop_reference.generate_synthetic(spec)
        for name in ("users", "items", "domains", "timestamps"):
            assert getattr(got, name).dtype == getattr(want, name).dtype
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_interleaving_mixes_domains(self):
        # A random interleave should not leave every user with all-A-then-all-B.
        log = generate_synthetic(small_spec(users=30, seq_len_range=(4, 6)))
        blocked = 0
        for user in log.user_ids():
            domains = log.domains[log.users == user]
            changes = int((domains[1:] != domains[:-1]).sum())
            blocked += changes <= 1
        assert blocked < 10


# -- TSV round trip ---------------------------------------------------------------


class TestTsvRoundTrip:
    def test_round_trip_preserves_structure(self, tmp_path):
        log = generate_synthetic(small_spec())
        path = tmp_path / "events.tsv"
        save_log(log, path)
        loaded = load_log(path)
        np.testing.assert_array_equal(loaded.users, log.users)
        np.testing.assert_array_equal(loaded.domains, log.domains)
        np.testing.assert_array_equal(loaded.timestamps, log.timestamps)

    def test_round_trip_items_follow_sidecar_mapping(self, tmp_path):
        log = generate_synthetic(small_spec())
        path = tmp_path / "events.tsv"
        save_log(log, path)
        loaded = load_log(path)
        out = tmp_path / "out"
        load_dataset(RunSpec(model={}, data=str(path), output_dir=str(out)))
        for domain, suffix in ((DOMAIN_A, "a"), (DOMAIN_B, "b")):
            side = out / f"item_map_{suffix}.tsv"
            assert side.exists()
            mapping = {}
            for line in side.read_text().splitlines():
                raw, dense = line.split("\t")
                mapping[int(raw)] = int(dense)
            rows = log.domains == domain
            expected = np.array([mapping[int(i)] for i in log.items[rows]])
            np.testing.assert_array_equal(loaded.items[rows], expected)

    def test_loading_writes_nothing_beside_the_input(self, tmp_path):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        path = data_dir / "events.tsv"
        save_log(generate_synthetic(small_spec()), path)
        loaded = load_log(path)
        load_dataset(RunSpec(model={}, data=str(path), output_dir=str(tmp_path / "out")))
        assert sorted(p.name for p in data_dir.iterdir()) == ["events.tsv"]
        assert set(loaded.item_maps) == {DOMAIN_A, DOMAIN_B}

    def test_dense_remap_first_appearance_order(self, tmp_path):
        path = tmp_path / "sparse.tsv"
        path.write_text("0\t900\tA\t1\n0\t40\tA\t2\n0\t900\tA\t3\n1\t7\tB\t1\n1\t3\tB\t2\n1\t5\tB\t3\n")
        loaded = load_log(path)
        np.testing.assert_array_equal(loaded.items, [1, 2, 1, 1, 2, 3])
        assert loaded.vocab_size(DOMAIN_A) == 2
        assert loaded.vocab_size(DOMAIN_B) == 3

    def test_header_row_is_skipped(self, tmp_path):
        path = tmp_path / "with_header.tsv"
        path.write_text("user\titem\tdomain\tts\n3\t10\tA\t5\n3\t11\tB\t9\n")
        loaded = load_log(path)
        assert len(loaded) == 2
        np.testing.assert_array_equal(loaded.users, [3, 3])
        # Timestamps renumber from the originals' order.
        np.testing.assert_array_equal(loaded.timestamps, [1, 2])

    @pytest.mark.parametrize("user", ["+1", "1_0"])
    def test_first_row_with_an_integer_user_is_data(self, tmp_path, user):
        # A user field that int() reads makes line 1 a row, in either order.
        rows = [f"{user}\t5\tA\t1\n", "2\t6\tB\t1\n"]
        for name, lines in (("first.tsv", rows), ("second.tsv", rows[::-1])):
            path = tmp_path / name
            path.write_text("".join(lines))
            loaded = load_log(path)
            assert sorted(loaded.users.tolist()) == sorted([int(user), 2])

    def test_header_is_the_first_row_whose_user_is_not_an_integer(self, tmp_path):
        path = tmp_path / "header.tsv"
        path.write_text("user\titem\tdomain\tts\n+1\t5\tA\t1\n")
        np.testing.assert_array_equal(load_log(path).users, [1])
        path.write_text("7\tx\tA\t1\n2\t6\tB\t1\n")
        with pytest.raises(ParseError, match=r"header\.tsv:1:"):
            load_log(path)
        path.write_text("0\t5\tA\t1\nuser\titem\tdomain\tts\n")
        with pytest.raises(ParseError, match=r"header\.tsv:2:"):
            load_log(path)

    def test_timestamp_ties_break_by_file_order(self, tmp_path):
        path = tmp_path / "ties.tsv"
        path.write_text("0\t10\tA\t7\n0\t11\tB\t7\n0\t12\tA\t2\n")
        loaded = load_log(path)
        # ts=2 row first, then the two ts=7 rows in file order.
        np.testing.assert_array_equal(loaded.domains, [DOMAIN_A, DOMAIN_A, DOMAIN_B])
        np.testing.assert_array_equal(loaded.timestamps, [1, 2, 3])

    def test_field_count_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0\t1\tA\t1\n0\t2\tA\n")
        with pytest.raises(ParseError, match=r"bad\.tsv:2"):
            load_log(path)

    def test_bad_domain_label_reports_line(self, tmp_path):
        path = tmp_path / "bad_domain.tsv"
        path.write_text("0\t1\tA\t1\n0\t2\tC\t2\n")
        with pytest.raises(ParseError, match=r"bad_domain\.tsv:2"):
            load_log(path)

    def test_non_integer_field_reports_line(self, tmp_path):
        path = tmp_path / "bad_int.tsv"
        path.write_text("0\t1\tA\t1\n0\ttwo\tA\t2\n")
        with pytest.raises(ParseError, match=r"bad_int\.tsv:2"):
            load_log(path)

    @pytest.mark.parametrize("row", ["0\t2\tB\t9223372036854775808\n", "-9223372036854775809\t2\tB\t1\n"])
    def test_user_or_timestamp_past_64_bits_reports_line(self, tmp_path, row):
        path = tmp_path / "huge.tsv"
        path.write_text("0\t1\tA\t1\n" + row)
        with pytest.raises(ParseError, match=r"huge\.tsv:2: .*64 bits"):
            load_log(path)

    def test_empty_file_loads_empty_log(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        assert len(load_log(path)) == 0

    def test_header_after_a_blank_line_is_skipped(self, tmp_path):
        path = tmp_path / "blank_then_header.tsv"
        path.write_text("\nuser\titem\tdomain\tts\n3\t10\tA\t5\n")
        loaded = load_log(path)
        np.testing.assert_array_equal(loaded.users, [3])
        np.testing.assert_array_equal(loaded.timestamps, [1])

    def test_header_only_file_loads_empty_int_log(self, tmp_path):
        path = tmp_path / "header_only.tsv"
        path.write_text("\n\r\nuser\titem\tdomain\tts\r\n")
        loaded = load_log(path)
        assert len(loaded) == 0
        for column in (loaded.users, loaded.items, loaded.domains, loaded.timestamps):
            assert column.dtype == np.int64 and column.shape == (0,)
        assert loaded.item_maps == {DOMAIN_A: {}, DOMAIN_B: {}}

    def test_leading_bom_is_not_a_header(self, tmp_path):
        log = generate_synthetic(small_spec())
        plain, bom = tmp_path / "plain.tsv", tmp_path / "bom.tsv"
        save_log(log, plain)
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        loaded, expected = load_log(bom), load_log(plain)
        assert len(loaded) == len(log)
        assert loaded.item_maps == expected.item_maps
        np.testing.assert_array_equal(loaded.items, expected.items)

    def test_non_utf8_byte_reports_file(self, tmp_path):
        path = tmp_path / "latin1.tsv"
        path.write_bytes("usér\titem\tdomain\tts\n0\t1\tA\t1\n".encode("latin-1"))
        with pytest.raises(ParseError, match=r"latin1\.tsv: not UTF-8"):
            load_log(path)

    def test_lowercase_domain_labels_accepted(self, tmp_path):
        path = tmp_path / "lower.tsv"
        path.write_text("0\t1\ta\t1\n0\t2\tb\t2\n")
        loaded = load_log(path)
        np.testing.assert_array_equal(loaded.domains, [DOMAIN_A, DOMAIN_B])


# -- leave-one-out splitting -------------------------------------------------------


def toy_log():
    """Two keepable users plus one too short in domain B."""
    rows = [
        # user 0: A = [1, 2, 3, 4], B = [5, 6, 7] interleaved
        (0, 1, DOMAIN_A, 1), (0, 5, DOMAIN_B, 2), (0, 2, DOMAIN_A, 3),
        (0, 6, DOMAIN_B, 4), (0, 3, DOMAIN_A, 5), (0, 7, DOMAIN_B, 6),
        (0, 4, DOMAIN_A, 7),
        # user 1: A = [9, 8, 1], B = [2, 2 repeats allowed? use 3, 1] -> keep simple
        (1, 9, DOMAIN_A, 1), (1, 2, DOMAIN_B, 2), (1, 8, DOMAIN_A, 3),
        (1, 3, DOMAIN_B, 4), (1, 1, DOMAIN_A, 5), (1, 1, DOMAIN_B, 6),
        # user 2: only 2 B events -> dropped
        (2, 1, DOMAIN_A, 1), (2, 2, DOMAIN_A, 2), (2, 3, DOMAIN_A, 3),
        (2, 4, DOMAIN_B, 4), (2, 5, DOMAIN_B, 5),
    ]
    users, items, domains, ts = zip(*rows)
    return InteractionLog(users=users, items=items, domains=domains, timestamps=ts)


class TestSplitLeaveOneOut:
    def test_split_structure(self):
        split = split_leave_one_out(toy_log())
        assert len(split) == 2
        assert split.dropped_users == 1
        np.testing.assert_array_equal(split.user_ids, [0, 1])
        np.testing.assert_array_equal(split.sequence(0, DOMAIN_A), [1, 2, 3, 4])
        np.testing.assert_array_equal(split.sequence(0, DOMAIN_B), [5, 6, 7])

    def test_train_val_test_conservation(self):
        split = split_leave_one_out(toy_log())
        users = np.arange(len(split))
        inputs = build_inputs(split, users, "train", 32, False)
        for domain, batch in ((DOMAIN_A, inputs.batch_a), (DOMAIN_B, inputs.batch_b)):
            targets = [stage_targets(split, users, domain, stage) for stage in ("train", "val", "test")]
            for row in range(len(split)):
                rebuilt = np.concatenate(
                    [batch.ids[row][batch.mask[row]], [target[row] for target in targets]]
                )
                np.testing.assert_array_equal(rebuilt, split.sequence(row, domain))

    def test_heldout_items_are_last_two(self):
        split = split_leave_one_out(toy_log())
        user0 = np.array([0])
        assert stage_targets(split, user0, DOMAIN_A, "val")[0] == 3
        assert stage_targets(split, user0, DOMAIN_A, "test")[0] == 4
        assert stage_targets(split, user0, DOMAIN_B, "val")[0] == 6
        assert stage_targets(split, user0, DOMAIN_B, "test")[0] == 7

    def test_vocab_comes_from_full_log(self):
        split = split_leave_one_out(toy_log())
        assert split.vocab_a == 9
        assert split.vocab_b == 7

    def test_min_len_below_three_rejected(self):
        with pytest.raises(ContractError, match="min_len"):
            split_leave_one_out(toy_log(), min_len=2)

    def test_all_users_dropped_raises(self):
        log = InteractionLog(
            users=[0, 0], items=[1, 2], domains=[DOMAIN_A, DOMAIN_B], timestamps=[1, 2]
        )
        with pytest.raises(EmptyDatasetError):
            split_leave_one_out(log)

    def test_dropped_count_matches_independent_scan(self):
        log = generate_synthetic(small_spec(users=200, seq_len_range=(3, 5)))
        split = split_leave_one_out(log, min_len=4)
        expected_dropped = 0
        for user in log.user_ids():
            domains = log.domains[log.users == user]
            if (domains == DOMAIN_A).sum() < 4 or (domains == DOMAIN_B).sum() < 4:
                expected_dropped += 1
        assert split.dropped_users == expected_dropped
        assert len(split) + split.dropped_users == 200

    @pytest.mark.parametrize("make_log, min_len", [
        (toy_log, 3),
        (lambda: generate_synthetic(small_spec(users=200, seq_len_range=(3, 5))), 4),
    ], ids=["toy", "synthetic"])
    def test_equals_per_user_scan(self, make_log, min_len):
        """The one-pass split against a scan of the whole log per user."""
        log = make_log()
        expected, dropped = [], 0
        for user in log.user_ids():
            rows = log.users == user
            domains, items, ts = log.domains[rows], log.items[rows], log.timestamps[rows]
            in_a, in_b = domains == DOMAIN_A, domains == DOMAIN_B
            if in_a.sum() < min_len or in_b.sum() < min_len:
                dropped += 1
                continue
            expected.append((int(user), items[in_a], ts[in_a], items[in_b], ts[in_b]))
        split = split_leave_one_out(log, min_len=min_len)
        assert dropped > 0 and split.dropped_users == dropped
        assert len(split) == len(expected)
        for index, (user, *arrays) in enumerate(expected):
            assert split.user_ids[index] == user
            got = []
            for domain in (DOMAIN_A, DOMAIN_B):
                run = slice(split.offsets[domain][index], split.offsets[domain][index + 1])
                got += [split.items[domain][run], split.times[domain][run]]
            for array, reference in zip(got, arrays):
                assert array.dtype == reference.dtype and array.tobytes() == reference.tobytes()


# -- negative sampling --------------------------------------------------------------


class TestSampleExcluding:
    def test_exclusion_and_distinctness(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            out = sample_excluding(20, [1, 2, 3], 5, rng)
            assert len(set(out.tolist())) == 5
            assert not set(out.tolist()) & {1, 2, 3}
            assert out.min() >= 4 or set(out.tolist()).isdisjoint({1, 2, 3})

    def test_forced_complement(self):
        rng = np.random.default_rng(4)
        out = sample_excluding(6, [2, 4, 6], 3, rng)
        assert sorted(out.tolist()) == [1, 3, 5]

    def test_insufficient_candidates_raises(self):
        rng = np.random.default_rng(5)
        with pytest.raises(SamplingError):
            sample_excluding(6, [2, 4, 6], 4, rng)

    def test_uniform_over_allowed_set(self):
        # Chi-square on 10k single draws from [1..50] minus a 10-item exclusion.
        rng = np.random.default_rng(6)
        exclude = list(range(1, 21, 2))
        allowed = sorted(set(range(1, 51)) - set(exclude))
        draws = np.concatenate([sample_excluding(50, exclude, 1, rng) for _ in range(10000)])
        counts = np.array([(draws == value).sum() for value in allowed])
        result = stats.chisquare(counts)
        assert result.pvalue > 0.01

    def test_draws_match_setdiff1d_formula(self):
        # The candidate pool must be the same sorted int64 array as
        # setdiff1d(arange(1, vocab + 1), exclude), so a seeded rng draws the
        # same lists; out-of-range exclusions are ignored by both.
        rng = np.random.default_rng(12)
        for trial in range(300):
            vocab = int(rng.integers(1, 80))
            size = 0 if trial % 10 == 0 else int(rng.integers(0, vocab + 5))
            exclude = rng.integers(-3, vocab + 6, size=size).tolist()
            allowed = np.setdiff1d(
                np.arange(1, vocab + 1, dtype=np.int64),
                np.fromiter(exclude, dtype=np.int64, count=len(exclude)),
            )
            for k in {0, min(1, allowed.size), allowed.size // 2, allowed.size}:
                got = sample_excluding(vocab, exclude, k, np.random.default_rng(trial))
                want = np.random.default_rng(trial).choice(allowed, size=k, replace=False)
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)

    def test_out_of_range_exclusions_ignored(self):
        rng = np.random.default_rng(13)
        out = sample_excluding(4, [-1, 0, 2, 5, 99], 3, rng)
        assert sorted(out.tolist()) == [1, 3, 4]

    def test_deterministic_given_rng_state(self):
        first = sample_excluding(30, [7], 6, np.random.default_rng(11))
        second = sample_excluding(30, [7], 6, np.random.default_rng(11))
        np.testing.assert_array_equal(first, second)


class TestSampleNegatives:
    def test_never_hits_history(self):
        split = split_leave_one_out(toy_log())
        rng = np.random.default_rng(2)
        for _ in range(100):
            out = sample_negatives(split, 0, DOMAIN_A, 4, rng)
            assert not set(out.tolist()) & {1, 2, 3, 4}

    def test_excludes_heldout_positives_too(self):
        # Full-history exclusion covers val and test items, not just train.
        split = split_leave_one_out(toy_log())
        rng = np.random.default_rng(8)
        for _ in range(100):
            out = sample_negatives(split, 0, DOMAIN_B, 3, rng)
            assert 6 not in out and 7 not in out


# -- batch assembly -----------------------------------------------------------------


def tiny_dataset():
    """toy_log's two kept users, vocabularies 9 and 7. User 0: A [1, 2, 3, 4]
    at times 1, 3, 5, 7 and B [5, 6, 7] at 2, 4, 6. User 1: A [9, 8, 1] at
    1, 3, 5 and B [2, 3, 1] at 2, 4, 6."""
    return split_leave_one_out(toy_log())


class TestBuildInputs:
    def test_train_inputs_drop_last_three(self):
        inputs = build_inputs(tiny_dataset(), np.array([0, 1]), "train", 32, False)
        np.testing.assert_array_equal(inputs.batch_a.ids, [[1], [0]])
        np.testing.assert_array_equal(inputs.batch_a.mask, [[True], [False]])
        np.testing.assert_array_equal(inputs.batch_b.ids, [[0], [0]])
        assert inputs.batch_combined is None

    def test_val_inputs_are_training_prefix(self):
        inputs = build_inputs(tiny_dataset(), np.array([0, 1]), "val", 32, False)
        np.testing.assert_array_equal(inputs.batch_a.ids, [[1, 2], [9, 0]])
        np.testing.assert_array_equal(inputs.batch_b.ids, [[5], [2]])

    def test_test_inputs_include_val_item(self):
        inputs = build_inputs(tiny_dataset(), np.array([0, 1]), "test", 32, False)
        np.testing.assert_array_equal(inputs.batch_a.ids, [[1, 2, 3], [9, 8, 0]])
        np.testing.assert_array_equal(inputs.batch_b.ids, [[5, 6], [2, 3]])

    def test_combined_merges_by_timestamp_with_offset(self):
        inputs = build_inputs(tiny_dataset(), np.array([0]), "test", 32, True)
        # user 0 prefix: A [1@1, 2@3, 3@5], B [5@2, 6@4] with offset 9.
        np.testing.assert_array_equal(inputs.batch_combined.ids, [[1, 14, 2, 15, 3]])
        assert inputs.batch_combined.domain == "combined"

    def test_max_len_keeps_most_recent(self):
        inputs = build_inputs(tiny_dataset(), np.array([0]), "test", 2, False)
        np.testing.assert_array_equal(inputs.batch_a.ids, [[2, 3]])

    def test_unknown_stage_rejected(self):
        with pytest.raises(ContractError, match="stage"):
            build_inputs(tiny_dataset(), np.array([0]), "deploy", 32, False)

    def test_rows_align_with_user_indices(self):
        inputs = build_inputs(tiny_dataset(), np.array([1, 0]), "test", 32, False)
        np.testing.assert_array_equal(inputs.batch_a.ids[0], [9, 8, 0])


class TestStageTargets:
    @pytest.mark.parametrize(
        "stage,expected_a,expected_b",
        [("train", [2, 9], [5, 2]), ("val", [3, 8], [6, 3]), ("test", [4, 1], [7, 1])],
    )
    def test_targets_per_stage(self, stage, expected_a, expected_b):
        data = tiny_dataset()
        idx = np.array([0, 1])
        np.testing.assert_array_equal(stage_targets(data, idx, DOMAIN_A, stage), expected_a)
        np.testing.assert_array_equal(stage_targets(data, idx, DOMAIN_B, stage), expected_b)

    def test_unknown_stage_rejected(self):
        with pytest.raises(ContractError, match="stage"):
            stage_targets(tiny_dataset(), np.array([0]), DOMAIN_A, "deploy")

    def test_targets_feed_scoring_positions(self):
        # Target for each stage is exactly the item after that stage's input prefix.
        data = tiny_dataset()
        inputs = build_inputs(data, np.array([0]), "val", 32, False)
        visible = inputs.batch_a.ids[0][inputs.batch_a.mask[0]]
        target = stage_targets(data, np.array([0]), DOMAIN_A, "val")[0]
        full = data.sequence(0, DOMAIN_A)
        np.testing.assert_array_equal(np.append(visible, target), full[: visible.size + 1])


class TestSplitBatchIntegration:
    def test_synthetic_end_to_end_shapes(self):
        log = generate_synthetic(small_spec(users=25, seq_len_range=(3, 6)))
        split = split_leave_one_out(log)
        idx = np.arange(len(split))
        inputs = build_inputs(split, idx, "train", 16, True)
        assert inputs.batch_a.ids.shape[0] == len(split)
        assert inputs.batch_combined.ids.shape[0] == len(split)
        # Combined thread sees every unpadded event from both domain threads.
        total_domain = inputs.batch_a.mask.sum() + inputs.batch_b.mask.sum()
        assert inputs.batch_combined.mask.sum() == total_domain

    def test_combined_ids_stay_within_joint_vocab(self):
        log = generate_synthetic(small_spec(users=25))
        split = split_leave_one_out(log)
        inputs = build_inputs(split, np.arange(len(split)), "test", 32, True)
        top = split.vocab_a + split.vocab_b
        real = inputs.batch_combined.ids[inputs.batch_combined.mask]
        assert real.min() >= 1
        assert real.max() <= top


# -- the flat layout against the per-user loops ----------------------------------


def tsv_log(tmp_path):
    path = tmp_path / "events.tsv"
    save_log(generate_synthetic(small_spec(users=60, seq_len_range=(3, 7), seed=3)), path)
    return load_log(path)


# name -> (log maker, min_len): "short" drops users, the others keep some
# user whose train input is empty in a domain.
EQUIVALENCE_LOGS = {
    "smoke": (lambda tmp_path: generate_synthetic(
        small_spec(users=150, items_per_domain=200, seq_len_range=(3, 10), seed=1)), 3),
    "long": (lambda tmp_path: generate_synthetic(
        small_spec(users=40, items_per_domain=60, seq_len_range=(10, 30), seed=1)), 3),
    "short": (lambda tmp_path: generate_synthetic(small_spec(users=120, seq_len_range=(3, 5), seed=11)), 4),
    "tsv": (tsv_log, 3),
}


class TestFlatLayoutEquivalence:
    """Split, batches, targets and pools equal the per-user loop versions in
    ``loop_reference``, bit for bit."""

    @pytest.fixture(params=sorted(EQUIVALENCE_LOGS), scope="class")
    def case(self, request, tmp_path_factory):
        make, min_len = EQUIVALENCE_LOGS[request.param]
        log = make(tmp_path_factory.mktemp(request.param))
        reference, dropped = loop_reference.split_leave_one_out(log, min_len)
        return split_leave_one_out(log, min_len), reference, dropped

    @staticmethod
    def assert_same(got, want):
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_split(self, case):
        split, reference, dropped = case
        assert split.dropped_users == dropped and len(split) == len(reference)
        for index, user in enumerate(reference):
            assert split.user_ids[index] == user.user
            for domain, items, times in (DOMAIN_A, user.items_a, user.ts_a), (DOMAIN_B, user.items_b, user.ts_b):
                run = slice(split.offsets[domain][index], split.offsets[domain][index + 1])
                self.assert_same(split.sequence(index, domain), items)
                self.assert_same(split.times[domain][run], times)

    @pytest.mark.parametrize("stage", ["train", "val", "test"])
    @pytest.mark.parametrize("batch", ["0", "1", "16", "all"])
    @pytest.mark.parametrize("max_len", [32, 4])
    @pytest.mark.parametrize("combined", [False, True])
    def test_batches_and_targets(self, case, stage, batch, max_len, combined):
        split, reference, _ = case
        users = np.random.default_rng(0).permutation(len(split))
        users = users if batch == "all" else users[: int(batch)]
        got = build_inputs(split, users, stage, max_len, combined)
        want = loop_reference.build_inputs(reference, split.vocab_a, users, stage, max_len, combined)
        threads = {"a": got.batch_a, "b": got.batch_b, "combined": got.batch_combined}
        assert set(want) == {name for name, value in threads.items() if value is not None}
        for name, (ids, mask) in want.items():
            self.assert_same(threads[name].ids, ids)
            self.assert_same(threads[name].mask, mask)
        for domain in (DOMAIN_A, DOMAIN_B):
            self.assert_same(
                stage_targets(split, users, domain, stage),
                loop_reference.stage_targets(reference, users, domain, stage),
            )

    def test_cases_cover_drops_an_empty_train_input_and_a_cut(self, tmp_path):
        """Some user is dropped, some user's train input is empty, and
        max_len 4 cuts some row."""
        splits = [split_leave_one_out(make(tmp_path), min_len) for make, min_len in EQUIVALENCE_LOGS.values()]
        train_lengths = np.concatenate([
            np.diff(split.offsets[domain]) - HOLDOUT["train"] for split in splits for domain in (DOMAIN_A, DOMAIN_B)
        ])
        assert any(split.dropped_users for split in splits)
        assert train_lengths.min() == 0 and train_lengths.max() > 4

    def test_candidate_pools(self, case):
        split, reference, _ = case
        pools = loop_reference.eval_pools(reference, {DOMAIN_A: split.vocab_a, DOMAIN_B: split.vocab_b})
        assert pools == {domain: split.vocab(domain) - split.most_distinct(domain) for domain in pools}
