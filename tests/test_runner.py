"""Tests for the experiment harness: specs, training runs, sweeps, analysis."""

import builtins
import csv
import dataclasses
import errno
import io
import json
import os
import subprocess
import sys
import weakref
from collections import Counter
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import gcalab
from gcalab import runner
from gcalab.backbone import DualDomainModel, ModelConfig, build, count_parameters
from gcalab.checkpoint import load_checkpoint, save_checkpoint
from gcalab.cli import load_config, main
from gcalab.data import SynthSpec, generate_synthetic, save_log
from gcalab.errors import (
    CellFileError,
    ConfigError,
    ContractError,
    GcalabError,
    InfeasibleMatchError,
    NanLossError,
)
from gcalab.gca import GcaConfig
from gcalab.metrics import MetricsRecord, RECORD_COLUMNS, aggregate_over_seeds, five_number_summary
from gcalab.runner import (
    ComparisonSpec,
    RunSpec,
    SweepSpec,
    TrainingParams,
    analyze,
    apply_axis,
    apply_edits,
    cell_path,
    config_id,
    data_descriptor,
    enumerate_sweep,
    evaluate,
    load_dataset,
    load_records,
    match_parameters,
    rebuild_rollup,
    resolve_model_config,
    resolve_run,
    run_cell,
    run_comparison,
    run_sweep,
    run_train,
    write_report,
)
from gcalab.svg import box_svg, scatter_svg, write_svg


def tiny_spec(tmp_path, **overrides):
    base = dict(
        model={
            "d": 8, "layers": 1, "heads": 2, "encoder_sharing": "independent",
            "combined_thread": False, "dropout_p": 0.1, "max_len": 8,
            "gca": {"placements": [0], "kv_source": "pairwise", "heads": 2},
        },
        data=SynthSpec(users=40, items_per_domain=40, cross_corr=0.7, seq_len_range=(4, 8), seed=3),
        training=TrainingParams(epochs=1, batch_size=32, lr=1e-3, eval_negatives=20, patience=5),
        seeds=(0, 1),
        output_dir=str(tmp_path / "out"),
    )
    base.update(overrides)
    return RunSpec(**base)


# The scaling curve's GCA arm as config edits, and the model block they make.
GCA_ARM = {"gca.placements": [0], "gca.kv_source": "pairwise", "gca.heads": 2}
GCA_ARM_BLOCK = {"placements": [0], "kv_source": "pairwise", "heads": 2}


# -- specs ---------------------------------------------------------------------


class TestSpecs:
    def test_default_seed_count_is_five(self, tmp_path):
        spec = tiny_spec(tmp_path, seeds=None or (0, 1, 2, 3, 4))
        assert len(RunSpec.__dataclass_fields__["seeds"].default) == 5
        assert len(spec.seeds) == 5

    def test_seeds_must_be_distinct(self, tmp_path):
        with pytest.raises(ConfigError, match="distinct"):
            tiny_spec(tmp_path, seeds=(1, 1))

    def test_seeds_must_be_nonempty(self, tmp_path):
        with pytest.raises(ConfigError, match="non-empty"):
            tiny_spec(tmp_path, seeds=())

    def test_training_defaults(self):
        params = TrainingParams()
        assert params.epochs == 50
        assert params.patience == 10
        assert params.eval_negatives == 99

    def test_from_dict_round_trip(self, tmp_path):
        spec = tiny_spec(tmp_path)
        rebuilt = RunSpec.from_dict(spec.to_dict())
        assert rebuilt == spec

    def test_from_dict_with_path_data(self):
        spec = RunSpec.from_dict(
            {"model": {"d": 8}, "data": {"path": "events.tsv"}, "seeds": [0]}
        )
        assert spec.data == "events.tsv"

    def test_from_dict_requires_sections(self):
        with pytest.raises(ConfigError, match="data"):
            RunSpec.from_dict({"model": {}})

    def test_sweep_needs_axes(self, tmp_path):
        with pytest.raises(ConfigError, match="axis"):
            SweepSpec(base=tiny_spec(tmp_path), axes={})

    def test_scaling_widths_strictly_increasing(self, tmp_path):
        with pytest.raises(ConfigError, match="increasing"):
            ComparisonSpec(base=tiny_spec(tmp_path), arms={"gca": GCA_ARM}, width_grid=[8, 8])

    @pytest.mark.parametrize(
        "arms, words",
        [
            ({}, "at least one named arm"),
            ({"baseline": GCA_ARM}, "'baseline' is taken"),
            ({"gca": {}}, "arm 'gca' needs a non-empty mapping"),
        ],
        ids=["empty", "named-baseline", "no-edits"],
    )
    def test_comparison_arms_are_checked(self, tmp_path, arms, words):
        with pytest.raises(ConfigError, match=words):
            ComparisonSpec(base=tiny_spec(tmp_path), arms=arms, width_grid=[8])


class TestConfigResolution:
    def test_vocab_filled_from_dataset(self, tmp_path):
        spec = tiny_spec(tmp_path)
        dataset = load_dataset(spec)
        cfg = resolve_model_config(spec, dataset)
        assert cfg.vocab_a == dataset.vocab_a
        assert cfg.vocab_b == dataset.vocab_b

    def test_explicit_undersized_vocab_rejected(self, tmp_path):
        spec = tiny_spec(tmp_path)
        spec.model["vocab_a"] = 1
        dataset = load_dataset(spec)
        with pytest.raises(ConfigError, match="vocab_a"):
            resolve_model_config(spec, dataset)

    def test_config_id_stable_and_sensitive(self, tmp_path):
        spec = tiny_spec(tmp_path)
        dataset = load_dataset(spec)
        cfg = resolve_model_config(spec, dataset)
        first = config_id(cfg, data_descriptor(spec), spec.training)
        second = config_id(cfg, data_descriptor(spec), spec.training)
        assert first == second
        other = config_id(replace(cfg, d=16), data_descriptor(spec), spec.training)
        assert other != first
        retrained = config_id(cfg, data_descriptor(spec), TrainingParams(epochs=2))
        assert retrained != first

    def test_eval_negatives_bounded_by_smallest_candidate_pool(self, tmp_path):
        spec = tiny_spec(tmp_path)
        dataset = load_dataset(spec)
        pool = min(
            dataset.vocab(domain) - max(len(np.unique(dataset.sequence(i, domain))) for i in range(len(dataset)))
            for domain in (0, 1)
        )
        resolve_run(replace(spec, training=replace(spec.training, eval_negatives=pool)))
        with pytest.raises(ConfigError, match=f"candidate pool in domain [AB]: {pool} items"):
            resolve_run(replace(spec, training=replace(spec.training, eval_negatives=pool + 1)))

    def test_combined_thread_key_must_match_the_wiring(self, tmp_path):
        spec = tiny_spec(tmp_path)
        dataset = load_dataset(spec)
        assert not resolve_model_config(spec, dataset).combined_embedded
        spec.model["combined_thread"] = True
        with pytest.raises(ConfigError, match="combined_thread=false"):
            resolve_model_config(spec, dataset)
        spec.model["gca"] = {"placements": [0], "kv_source": "combined", "heads": 2}
        assert resolve_model_config(spec, dataset).combined_embedded


class TestFileDataIdentity:
    def write(self, tmp_path, path):
        save_log(generate_synthetic(tiny_spec(tmp_path).data), path)
        return path

    def test_editing_a_file_in_place_reruns_its_cells(self, tmp_path):
        path = self.write(tmp_path, tmp_path / "events.tsv")
        spec = tiny_spec(tmp_path, data=str(path), training=TrainingParams(epochs=0, eval_negatives=20))
        before = run_cell(spec, 0)
        # Swap the order of user 0's first two events: same vocabularies,
        # same path, different data.
        rows = [line.split("\t") for line in path.read_text().splitlines()]
        assert rows[0][0] == rows[1][0]
        rows[0][3], rows[1][3] = rows[1][3], rows[0][3]
        path.write_text("".join("\t".join(row) + "\n" for row in rows))
        edited = resolve_run(spec).cid
        assert edited != before.config_id
        after = run_cell(spec, 0, resume=True)
        assert after.config_id == edited
        assert cell_path(spec.output_dir, edited, 0).exists()

    def test_cli_train_reads_the_data_file_once(self, tmp_path):
        # One read, so the config id hashes the very bytes that are parsed.
        path = self.write(tmp_path, tmp_path / "events.tsv")
        config = tmp_path / "train.json"
        spec = tiny_spec(tmp_path, data=str(path), training=TrainingParams(epochs=0, eval_negatives=20))
        config.write_text(json.dumps(spec.to_dict()))
        assert json.loads(config.read_text())["data"] == {"path": str(path)}
        probe = (
            "import sys\n"
            "from gcalab.cli import main\n"
            "opens = []\n"
            "sys.addaudithook(lambda event, args: event == 'open'"
            " and str(args[0]).endswith('events.tsv') and opens.append(args[1]))\n"
            "status = main(sys.argv[1:])\n"
            "print(status, len(opens))\n"
        )
        src = str(Path(gcalab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        command = ["train", "--config", str(config), "--out", str(tmp_path / "out"), "--seed", "0"]
        child = subprocess.run(
            [sys.executable, "-c", probe, *command], env=env, capture_output=True, text=True, check=True
        )
        assert child.stdout.splitlines()[-1] == "0 1"

    def test_same_bytes_at_two_paths_share_candidate_lists(self, tmp_path):
        first = self.write(tmp_path, tmp_path / "one.tsv")
        second = tmp_path / "elsewhere" / "two.tsv"
        second.parent.mkdir()
        second.write_bytes(first.read_bytes())
        runs = [resolve_run(tiny_spec(tmp_path, data=str(path))) for path in (first, second)]
        model = build(runs[0].cfg, seed=0)
        for run in runs:
            evaluate(model, run, "val")
        first, second = (run.source.candidates("val", run.spec.training.eval_negatives) for run in runs)
        for domain, rows in first.items():
            np.testing.assert_array_equal(rows, second[domain])


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("name", sorted(path.name for path in CONFIG_DIR.glob("*.json")))
def test_shipped_config_resolves(tmp_path, name):
    payload = load_config(str(CONFIG_DIR / name))
    payload["output_dir"] = str(tmp_path)
    if "axes" in payload:
        specs = [run for _, run in enumerate_sweep(SweepSpec.from_dict(payload))]
    elif "arms" in payload:
        comparison = ComparisonSpec.from_dict(payload)
        specs = [comparison.base] + [apply_edits(comparison.base, edits) for edits in comparison.arms.values()]
    else:
        specs = [RunSpec.from_dict(payload)]
    shared = {}
    for spec in specs:
        run = resolve_run(spec, shared)
        assert count_parameters(run.cfg) == build(run.cfg, seed=0).param_count


# -- single runs -----------------------------------------------------------------


class TestRunTrain:
    def test_untrained_model_scores_at_chance(self, tmp_path):
        """Monte Carlo oracle: with epochs=0 the positive's rank is uniform
        over the candidate list, fixing the expected NDCG and AUC."""
        spec = tiny_spec(
            tmp_path,
            data=SynthSpec(users=400, items_per_domain=500, cross_corr=0.5,
                           seq_len_range=(3, 6), seed=11),
            training=TrainingParams(epochs=0, eval_negatives=99),
            seeds=(0,),
        )
        record = run_train(spec, seed=0)
        rng = np.random.default_rng(2024)
        ranks = rng.integers(1, 101, size=200_000)
        chance_ndcg10 = float(np.mean(np.where(ranks <= 10, 1.0 / np.log2(1.0 + ranks), 0.0)))
        chance_ndcg1 = float(np.mean(ranks == 1))
        assert record.epoch_of_best == 0
        assert record.ndcg10_a == pytest.approx(chance_ndcg10, abs=0.03)
        assert record.ndcg10_b == pytest.approx(chance_ndcg10, abs=0.03)
        assert record.ndcg1_a == pytest.approx(chance_ndcg1, abs=0.02)
        assert record.auc_a == pytest.approx(0.5, abs=0.04)
        assert record.auc_b == pytest.approx(0.5, abs=0.04)

    def test_same_seed_identical_record(self, tmp_path):
        spec = tiny_spec(tmp_path)
        assert run_train(spec, seed=0) == run_train(spec, seed=0)

    def test_different_seeds_differ(self, tmp_path):
        spec = tiny_spec(tmp_path)
        assert run_train(spec, seed=0) != run_train(spec, seed=1)

    def test_param_count_matches_closed_form(self, tmp_path):
        spec = tiny_spec(tmp_path, training=TrainingParams(epochs=0, eval_negatives=10))
        dataset = load_dataset(spec)
        cfg = resolve_model_config(spec, dataset)
        record = run_train(spec, seed=0)
        assert record.param_count == count_parameters(cfg)

    def test_checkpoint_reproduces_test_metrics(self, tmp_path):
        spec = tiny_spec(tmp_path, training=TrainingParams(epochs=2, batch_size=32,
                                                           eval_negatives=20, patience=5))
        ckpt = tmp_path / "best.ckpt"
        record = run_train(spec, seed=0, checkpoint_path=ckpt)
        run = resolve_run(spec)
        model = build(run.cfg, seed=0)
        load_checkpoint(model.store, str(ckpt))
        scores = evaluate(model, run, "test")
        assert scores["ndcg10_a"] == record.ndcg10_a
        assert scores["auc_b"] == record.auc_b

    def test_candidate_cache_keeps_metrics_bitwise(self, tmp_path):
        spec = tiny_spec(tmp_path)
        shared = {}
        other = resolve_run(apply_axis(spec, "d", 16), shared)
        for stage in ("val", "test"):
            evaluate(build(other.cfg, seed=1), other, stage)
        # ``warm``'s source was filled by another config; ``alone``'s start empty.
        warm = resolve_run(spec, shared)
        assert warm.source is other.source
        alone = [resolve_run(spec) for _ in range(2)]
        assert len({id(run.source) for run in (*alone, warm)}) == 3
        model = build(warm.cfg, seed=0)
        for _ in range(2):  # the first pass fills the lone caches, the second reads them
            for stage in ("val", "test"):
                scores = [evaluate(model, run, stage) for run in (*alone, warm)]
                assert scores[0] == scores[1] == scores[2]

    def test_candidate_lists_drawn_once_per_stage(self, tmp_path, monkeypatch):
        drawn = []
        original = runner.sample_negatives

        def counting(dataset, user_index, domain, k, rng):
            drawn.append((user_index, domain))
            return original(dataset, user_index, domain, k, rng)

        monkeypatch.setattr(runner, "sample_negatives", counting)
        spec = tiny_spec(tmp_path, training=TrainingParams(epochs=3, batch_size=32,
                                                           eval_negatives=20, patience=5))
        run_train(spec, seed=0)
        users = len(load_dataset(spec))
        # One list per (stage, domain, user): four validation passes share one draw.
        assert len(drawn) == 2 * 2 * users

    def test_no_training_graph_outlives_its_step(self, tmp_path, monkeypatch):
        """A step's loss roots its whole autodiff graph, so no earlier loss
        may be alive when the next step's forward or any evaluation starts."""
        losses = []
        entries = Counter()

        def assert_no_loss_alive(where):
            entries[where] += 1
            alive = [i for i, ref in enumerate(losses) if ref() is not None]
            assert not alive, f"losses {alive} alive at {where} entry {entries[where]}"

        original_loss = DualDomainModel.training_loss
        original_evaluate = runner.evaluate

        def training_loss(self, *args, **kwargs):
            assert_no_loss_alive("training_loss")
            loss = original_loss(self, *args, **kwargs)
            losses.append(weakref.ref(loss.data))
            return loss

        def evaluate(*args, **kwargs):
            assert_no_loss_alive("evaluate")
            return original_evaluate(*args, **kwargs)

        monkeypatch.setattr(DualDomainModel, "training_loss", training_loss)
        monkeypatch.setattr(runner, "evaluate", evaluate)
        spec = tiny_spec(tmp_path, training=TrainingParams(epochs=2, batch_size=16,
                                                           eval_negatives=20, patience=5))
        run_train(spec, seed=0)
        # 40 users in batches of 16: three steps per epoch; one validation
        # pass before training and after each epoch, then the test pass.
        assert entries == {"training_loss": 6, "evaluate": 4}

    def test_probes_silent_without_placements(self, tmp_path):
        spec = tiny_spec(tmp_path, training=TrainingParams(epochs=0, eval_negatives=10))
        spec.model["gca"] = {"placements": [], "kv_source": "pairwise", "heads": 2}
        record = run_train(spec, seed=0)
        assert record.cos_xxprime_a == 0.0
        assert record.cos_xy_b == 0.0

    def test_gca_run_reports_probe_values(self, tmp_path):
        spec = tiny_spec(tmp_path, training=TrainingParams(epochs=0, eval_negatives=10))
        record = run_train(spec, seed=0)
        assert 0.0 < record.cos_xxprime_a <= 1.0
        assert 0.0 < record.cos_xy_a <= 1.0

    @pytest.mark.parametrize("kv_source", ["pairwise", "combined"])
    def test_cos_xy_is_one_number_under_pairwise_kv(self, tmp_path, kv_source):
        # Under pairwise kv each domain's query is the other's kv, and the
        # channel compares position i of A with position i of B: symmetric in
        # the two domains, so both read the same number. Combined kv differs.
        spec = tiny_spec(tmp_path)
        spec.model["combined_thread"] = kv_source == "combined"
        spec.model["gca"] = {"placements": [0], "kv_source": kv_source, "heads": 2}
        record = run_train(spec, seed=0)
        assert 0.0 < record.cos_xy_a <= 1.0
        assert (record.cos_xy_a == record.cos_xy_b) is (kv_source == "pairwise")


# -- cells, resume, rollup ------------------------------------------------------------


class TestCells:
    def test_cell_file_written_and_loadable(self, tmp_path):
        spec = tiny_spec(tmp_path)
        record = run_cell(spec, 0)
        dataset = load_dataset(spec)
        cfg = resolve_model_config(spec, dataset)
        cid = config_id(cfg, data_descriptor(spec), spec.training)
        path = cell_path(spec.output_dir, cid, 0)
        assert path.exists()
        payload = json.loads(path.read_text())
        assert payload["failed"] is False
        assert MetricsRecord.from_dict(payload["record"]) == record
        assert payload["resolved"]["seed"] == 0
        assert payload["resolved"]["model"]["d"] == 8

    def test_resume_skips_completed_cell(self, tmp_path, monkeypatch):
        spec = tiny_spec(tmp_path)
        first = run_cell(spec, 0)

        def boom(*args, **kwargs):
            raise AssertionError("should not retrain a completed cell")

        monkeypatch.setattr("gcalab.runner.run_train", boom)
        resumed = run_cell(spec, 0, resume=True)
        assert resumed == first

    def test_without_resume_cell_is_rerun(self, tmp_path, monkeypatch):
        spec = tiny_spec(tmp_path)
        run_cell(spec, 0)
        calls = []
        original = run_train

        def counting(spec_, seed, *args, **kwargs):
            calls.append(seed)
            return original(spec_, seed, *args, **kwargs)

        monkeypatch.setattr("gcalab.runner.run_train", counting)
        run_cell(spec, 0, resume=False)
        assert calls == [0]

    def test_failed_cell_recorded_and_rerun_on_resume(self, tmp_path, monkeypatch):
        spec = tiny_spec(tmp_path)

        def nan_train(*args, **kwargs):
            raise NanLossError("loss exploded")

        monkeypatch.setattr("gcalab.runner.run_train", nan_train)
        assert run_cell(spec, 0) is None
        dataset = load_dataset(spec)
        cfg = resolve_model_config(spec, dataset)
        cid = config_id(cfg, data_descriptor(spec), spec.training)
        path = cell_path(spec.output_dir, cid, 0)
        payload = json.loads(path.read_text())
        assert payload["failed"] is True
        assert "loss exploded" in payload["error"]
        assert payload["resolved"]["config_id"] == cid

        # Once the fault is fixed, resume trains the failed cell again and
        # its record replaces the failure.
        monkeypatch.setattr("gcalab.runner.run_train", run_train)
        record = run_cell(spec, 0, resume=True)
        assert record is not None and record.config_id == cid
        payload = json.loads(path.read_text())
        assert payload["failed"] is False and "error" not in payload
        assert MetricsRecord.from_dict(payload["record"]) == record
        assert run_cell(spec, 0, resume=True) == record

    @staticmethod
    def _one_cell(spec):
        """Run seed 0 of ``spec``; its record and the path of its cell file."""
        record = run_cell(spec, 0)
        (path,) = Path(spec.output_dir).glob("cells/*/seed0.json")
        return record, path

    @staticmethod
    def _damage(path, damage):
        """Leave the cell file at ``path`` unreadable as a cell, by ``damage``."""
        if damage == "truncated":
            path.write_bytes(path.read_bytes()[:50])
            return
        payload = json.loads(path.read_text())
        if damage == "no-failed-flag":
            del payload["failed"]
        elif damage == "no-resolved":
            del payload["resolved"]
        elif damage == "no-placements":
            del payload["resolved"]["model"]["gca"]["placements"]
        else:
            payload["record"]["ndcg10_a"] = 1.5
        path.write_text(json.dumps(payload))

    @pytest.mark.parametrize(
        "damage", ["truncated", "no-failed-flag", "no-resolved", "no-placements", "metric-out-of-range"]
    )
    def test_unreadable_cell_rerun_on_resume(self, tmp_path, damage):
        spec = tiny_spec(tmp_path)
        record, path = self._one_cell(spec)
        self._damage(path, damage)
        assert run_cell(spec, 0, resume=True) == record
        payload = json.loads(path.read_text())
        assert payload["failed"] is False
        assert MetricsRecord.from_dict(payload["record"]) == record
        assert payload["resolved"]["config_id"] == record.config_id

    @pytest.mark.parametrize("damage", ["truncated", "no-resolved", "no-placements", "metric-out-of-range"])
    def test_load_records_names_truncated_cell(self, tmp_path, capsys, damage):
        spec = tiny_spec(tmp_path)
        _, path = self._one_cell(spec)
        self._damage(path, damage)
        with pytest.raises(CellFileError, match=str(path)):
            load_records(spec.output_dir)
        for command in ("analyze", "report"):
            assert main([command, "--out", spec.output_dir]) == 1
            err = capsys.readouterr().err
            assert str(path) in err and "Traceback" not in err

    @pytest.mark.parametrize("target", ["results.csv", "checkpoint"])
    def test_interrupted_write_keeps_old_file(self, tmp_path, monkeypatch, target):
        if target == "results.csv":
            path = tmp_path / "results.csv"
            write_cell(tmp_path, make_record(seed=0))
            rebuild_rollup(tmp_path)
            write_cell(tmp_path, make_record(seed=1))
            rewrite = partial(rebuild_rollup, tmp_path)
        else:
            spec = tiny_spec(tmp_path)
            cfg = resolve_model_config(spec, load_dataset(spec))
            path = tmp_path / "model.ckpt"
            save_checkpoint(build(cfg, seed=0).store, str(path))
            rewrite = partial(save_checkpoint, build(cfg, seed=1).store, str(path))
        before = path.read_bytes()
        fill_disk(monkeypatch, tmp_path)
        with pytest.raises(OSError) as caught:
            rewrite()
        assert caught.value.errno == errno.ENOSPC
        assert path.read_bytes() == before
        assert not list(tmp_path.rglob("*.tmp.*"))

    def test_rollup_totals_and_aggregate_precision(self, tmp_path):
        spec = tiny_spec(tmp_path, seeds=(0, 1))
        for seed in spec.seeds:
            run_cell(spec, seed)
        records = rebuild_rollup(spec.output_dir)
        assert len(records) == 2
        results = (tmp_path / "out" / "results.csv").read_text().strip().splitlines()
        assert results[0] == ",".join(RECORD_COLUMNS)
        assert len(results) == 3
        expected = aggregate_over_seeds(records)
        agg_lines = (tmp_path / "out" / "aggregates.csv").read_text().strip().splitlines()
        header = agg_lines[0].split(",")
        row = agg_lines[1].split(",")
        mean_col = header.index("mean_ndcg10_a")
        assert float(row[mean_col]) == pytest.approx(expected.mean["ndcg10_a"], abs=1e-12)
        sd_col = header.index("sd_ndcg10_a")
        assert float(row[sd_col]) == pytest.approx(expected.sd["ndcg10_a"], abs=1e-12)

    def test_results_csv_follows_column_order(self, tmp_path):
        write_cell(tmp_path, make_record(seed=2))
        rebuild_rollup(tmp_path)
        header, row = (tmp_path / "results.csv").read_text().splitlines()
        assert header.split(",") == list(RECORD_COLUMNS)
        cells = row.split(",")
        assert cells[RECORD_COLUMNS.index("config_id")] == "cfg0"
        assert cells[RECORD_COLUMNS.index("seed")] == "2"
        assert float(cells[RECORD_COLUMNS.index("ndcg10_a")]) == 0.4

    def test_csv_cells_are_empty_repr_or_str(self, tmp_path):
        path = tmp_path / "table.csv"
        runner._write_csv(path, ("none", "float", "int", "text"), [[None, 0.1, 3, "a b"]])
        assert path.read_text() == "none,float,int,text\n,0.1,3,a b\n"


# -- sweeps --------------------------------------------------------------------------------


class TestSweep:
    def test_axis_application_paths(self, tmp_path):
        spec = tiny_spec(tmp_path)
        wider = apply_axis(spec, "model.d", 16)
        assert wider.model["d"] == 16 and spec.model["d"] == 8
        gated = apply_axis(spec, "gca.placements", [0, 1])
        assert gated.model["gca"]["placements"] == [0, 1]
        longer = apply_axis(spec, "training.epochs", 9)
        assert longer.training.epochs == 9
        shifted = apply_axis(spec, "data.cross_corr", 0.2)
        assert shifted.data.cross_corr == 0.2

    def test_data_axis_requires_synthetic_source(self, tmp_path):
        spec = tiny_spec(tmp_path, data="events.tsv")
        with pytest.raises(ConfigError, match="synthetic"):
            apply_axis(spec, "data.cross_corr", 0.5)

    def test_grid_enumeration_order_and_size(self, tmp_path):
        spec = SweepSpec(
            base=tiny_spec(tmp_path),
            axes={"gca.placements": [[], [0]], "gca.gate_activation": ["sigmoid", "tanh"]},
        )
        cells = enumerate_sweep(spec)
        assert len(cells) == 4
        assignments = [a for a, _ in cells]
        assert assignments[0] == {"gca.placements": [], "gca.gate_activation": "sigmoid"}
        assert assignments[-1] == {"gca.placements": [0], "gca.gate_activation": "tanh"}

    def test_two_by_two_times_two_seeds_gives_eight_records(self, tmp_path):
        spec = SweepSpec(
            base=tiny_spec(tmp_path, seeds=(0, 1)),
            axes={"gca.placements": [[], [0]], "gca.gate_activation": ["sigmoid", "tanh"]},
        )
        records = run_sweep(spec)
        assert len(records) == 8
        assert len({r.config_id for r in records}) == 4
        manifest = json.loads((tmp_path / "out" / "sweep_manifest.json").read_text())
        assert len(manifest["cells"]) == 4

    def test_single_point_grid_equals_run_train(self, tmp_path):
        base = tiny_spec(tmp_path, seeds=(0, 1))
        spec = SweepSpec(base=base, axes={"gca.gate_activation": ["tanh"]})
        records = run_sweep(spec)
        expected = [run_train(apply_axis(base, "gca.gate_activation", "tanh"), seed) for seed in (0, 1)]
        assert records == expected

    def test_resume_reruns_only_deleted_cell(self, tmp_path, monkeypatch):
        spec = SweepSpec(
            base=tiny_spec(tmp_path, seeds=(0, 1)),
            axes={"gca.gate_activation": ["sigmoid", "tanh"]},
        )
        records = run_sweep(spec)
        assert len(records) == 4
        victim = records[0]
        cell_path(spec.base.output_dir, victim.config_id, victim.seed).unlink()
        calls = []
        original = run_train

        def counting(spec_, seed, *args, **kwargs):
            calls.append(seed)
            return original(spec_, seed, *args, **kwargs)

        monkeypatch.setattr("gcalab.runner.run_train", counting)
        resumed = run_sweep(spec, resume=True)
        assert len(calls) == 1
        assert sorted(r.config_id for r in resumed) == sorted(r.config_id for r in records)

    def test_failed_cells_do_not_abort_sweep(self, tmp_path, monkeypatch):
        spec = SweepSpec(
            base=tiny_spec(tmp_path, seeds=(0,)),
            axes={"gca.gate_activation": ["sigmoid", "tanh"]},
        )
        original = run_train
        state = {"first": True}

        def flaky(spec_, seed, *args, **kwargs):
            if state.pop("first", False):
                raise NanLossError("boom")
            return original(spec_, seed, *args, **kwargs)

        monkeypatch.setattr("gcalab.runner.run_train", flaky)
        records = run_sweep(spec)
        assert len(records) == 1


# -- resolving once per command ----------------------------------------------------------------


def cell_files(output_dir):
    """Every cell file under ``output_dir`` by relative path, without its timing."""
    files = {}
    for path in sorted((output_dir / "cells").glob("*/seed*.json")):
        payload = json.loads(path.read_text())
        payload.pop("runtime_s")
        files[str(path.relative_to(output_dir))] = payload
    return files


def checkpoint_bytes(output_dir):
    """Every checkpoint under ``output_dir`` by file name."""
    return {path.name: path.read_bytes() for path in sorted((output_dir / "checkpoints").glob("*.ckpt"))}


def counting_run_train(monkeypatch):
    """Patch run_train to log each (config id, seed) it trains; returns the log."""
    calls = []
    original = runner.run_train

    def counting(run, seed, *args, **kwargs):
        calls.append((run.cid, seed))
        return original(run, seed, *args, **kwargs)

    monkeypatch.setattr(runner, "run_train", counting)
    return calls


# Placements {[], [0]} x gate: the two no-placement cells of a seed build the
# same model, since the gate activation is a GCA setting.
INERT_AXES = {"gca.placements": [[], [0]], "gca.gate_activation": ["sigmoid", "tanh"]}


@pytest.fixture
def counters(monkeypatch):
    """Calls of the runner's data loading and candidate drawing."""
    counts = {"load_dataset": 0, "sample_negatives": 0}
    for name in counts:
        original = getattr(runner, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(runner, name, counting)
    return counts


class TestResolveOnce:
    @pytest.mark.parametrize("source", ["tsv", "synthetic", "inert-twins", "scaling", "train-seed1"])
    def test_sweep_cells_equal_standalone_cells(self, tmp_path, source):
        """Every command's cells and checkpoints equal those of cells run one
        by one through run_cell."""
        if source in ("tsv", "synthetic", "inert-twins"):
            if source == "tsv":
                path = tmp_path / "events.tsv"
                save_log(generate_synthetic(tiny_spec(tmp_path).data), path)
                base = tiny_spec(tmp_path, data=str(path), seeds=(0, 1))
                axes = {"gca.gate_activation": ["sigmoid", "tanh"]}
            elif source == "inert-twins":
                base = tiny_spec(tmp_path, seeds=(0, 1))
                axes = INERT_AXES
            else:
                # Both sizes share the data seed, so a cache keyed on it alone
                # would hand the 30-user data or lists to the 40-user cells.
                base = tiny_spec(tmp_path, seeds=(0,))
                axes = {"data.users": [30, 40], "gca.gate_activation": ["sigmoid", "tanh"]}
            spec = SweepSpec(base=base, axes=axes)
            run_sweep(spec)
            cells = [(run, run.seeds) for _, run in enumerate_sweep(spec)]
        elif source == "scaling":
            spec = TestScalingCurve().spec(tmp_path, [6, 12])
            report = run_comparison(spec)
            plain = {**spec.base.model, "gca": {"placements": []}}
            models = [{**plain, "d": p.d} for p in report.points if p.kind == "baseline"]
            models.append({**spec.base.model, "gca": GCA_ARM_BLOCK})
            cells = [(replace(spec.base, model=model), spec.base.seeds) for model in models]
        else:
            base = tiny_spec(tmp_path, seeds=(0, 1))
            config = tmp_path / "train.json"
            config.write_text(json.dumps(base.to_dict()))
            out = str(tmp_path / "out")
            assert main(["train", "--config", str(config), "--out", out, "--seed", "1"]) == 0
            cells = [(base, (1,))]
        alone = tmp_path / "alone"
        for run, seeds in cells:
            for seed in seeds:
                run_cell(replace(run, output_dir=str(alone)), seed)
        ran = cell_files(tmp_path / "out")
        assert len(ran) == sum(len(seeds) for _, seeds in cells)
        assert cell_files(alone) == ran
        assert len(checkpoint_bytes(alone)) == len(ran)
        assert checkpoint_bytes(alone) == checkpoint_bytes(tmp_path / "out")
        if source == "train-seed1":
            assert [Path(name).name for name in ran] == ["seed1.json"]

    def test_cached_candidate_lists_are_read_only(self, tmp_path, monkeypatch):
        spec = tiny_spec(tmp_path, seeds=(0,))
        run = resolve_run(spec)
        run_train(run, 0)
        monkeypatch.setattr(runner, "sample_negatives", None)  # stored lists draw nothing
        for stage in ("val", "test"):
            for rows in run.source.candidates(stage, spec.training.eval_negatives).values():
                with pytest.raises(ValueError, match="read-only"):
                    rows[0, 0] = 0

    @pytest.mark.parametrize(
        "path, values", [("gca.gate_activation", ["sigmoid", "tanh"]), ("max_len", [6, 8])],
        ids=["gate-activation", "max-len"],
    )
    def test_eval_inputs_built_once_per_key(self, tmp_path, monkeypatch, counters, path, values):
        spec = SweepSpec(base=tiny_spec(tmp_path, seeds=(0,)), axes={path: values})
        built = []
        original = runner.build_inputs

        def spy(dataset, users, stage, max_len, include_combined):
            built.append((stage, max_len, include_combined, tuple(users.tolist())))
            return original(dataset, users, stage, max_len, include_combined)

        monkeypatch.setattr(runner, "build_inputs", spy)
        records = run_sweep(spec)
        # Two cells evaluate val twice (epochs 0 and 1) and test once each;
        # 40 users make one chunk per stage.
        evals = Counter(key for key in built if key[0] != "train")
        widths = values if path == "max_len" else [spec.base.model["max_len"]]
        assert sorted((stage, max_len) for stage, max_len, *_ in evals) == [
            (stage, max_len) for stage in ("test", "val") for max_len in widths
        ]
        assert set(evals.values()) == {1}
        # Candidate lists do not depend on max_len: one draw per stage,
        # domain and user for both cells.
        assert counters["sample_negatives"] == 2 * 2 * len(load_dataset(spec.base))
        assert len(records) == 2
        monkeypatch.setattr(runner, "build_inputs", original)
        # The second sweep cell read what the first config stored; a run
        # resolved alone starts with an empty source.
        for (_, run), record in zip(enumerate_sweep(spec), records):
            assert run_train(run, 0) == record

    def test_cached_eval_inputs_are_read_only(self, tmp_path, monkeypatch):
        spec = tiny_spec(tmp_path, seeds=(0,))
        run = resolve_run(spec)
        run_train(run, 0)
        monkeypatch.setattr(runner, "build_inputs", None)  # stored inputs build nothing
        for stage in ("val", "test"):
            for inputs in run.source.inputs(stage, run.cfg.max_len, run.cfg.combined_embedded):
                for array in (inputs.batch_a.ids, inputs.batch_b.mask):
                    with pytest.raises(ValueError, match="read-only"):
                        array[0, 0] = 0

    def test_sweep_loads_each_source_once(self, tmp_path, counters):
        spec = SweepSpec(
            base=tiny_spec(tmp_path, seeds=(0, 1)),
            axes={"data.users": [30, 40], "training.eval_negatives": [10, 20]},
        )
        sizes = {run.data.users: len(load_dataset(run)) for _, run in enumerate_sweep(spec)}
        users = sum(sizes.values())
        run_sweep(spec)
        # Lists per (data, eval_negatives): users x 2 domains x 2 stages.
        assert counters == {"load_dataset": 2, "sample_negatives": 2 * users * 2 * 2}
        counters.update(load_dataset=0, sample_negatives=0)
        run_sweep(spec, resume=True)
        assert counters == {"load_dataset": 2, "sample_negatives": 0}

    def test_standalone_cell_loads_once(self, tmp_path, counters):
        spec = tiny_spec(tmp_path, seeds=(0,))
        run_cell(spec, 0)
        assert counters["load_dataset"] == 1
        run_train(spec, 0)
        assert counters["load_dataset"] == 2

    def test_cli_train_loads_once_for_all_seeds(self, tmp_path, counters):
        spec = tiny_spec(tmp_path, seeds=(0, 1, 2))
        config = tmp_path / "train.json"
        config.write_text(json.dumps(spec.to_dict()))
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "cli")]) == 0
        assert counters == {"load_dataset": 1, "sample_negatives": len(load_dataset(spec)) * 2 * 2}
        assert len(load_records(tmp_path / "cli")) == 3

    def test_scaling_curve_loads_once(self, tmp_path, counters):
        report = TestScalingCurve().run(tmp_path, [6, 12])
        assert len(report.points) >= 3
        assert counters["load_dataset"] == 1


# -- one training per distinct model ------------------------------------------------------------


class TestTrainedOnce:
    def test_no_placement_configs_share_the_built_model(self, tmp_path):
        run = resolve_run(tiny_spec(tmp_path))
        variants = {
            "gate_activation": ("sigmoid", "tanh"),
            "use_layernorm": (True, False),
            "heads": (2, 4),
            "gate_hidden": (None, 5),
            "kv_source": ("pairwise", "combined"),
        }
        assert set(variants) == {f.name for f in dataclasses.fields(GcaConfig)} - {"placements"}
        for name, values in variants.items():
            for placements, same in (((), True), ((0,), False)):
                runs = [
                    replace(run, cfg=replace(run.cfg, gca=GcaConfig(placements=placements, **{name: value})))
                    for value in values
                ]
                runs = [replace(r, cid=config_id(r.cfg, r.source.descriptor, r.spec.training)) for r in runs]
                assert runs[0].cid != runs[1].cid, name
                assert (runs[0].model_key == runs[1].model_key) is same, (name, placements)
                if same:
                    assert runs[0].model_key == config_id(
                        runs[1].cfg.as_built(), run.source.descriptor, run.spec.training
                    )
                    assert count_parameters(runs[0].cfg) == count_parameters(runs[1].cfg)
                    states = [build(r.cfg, 0).store.state() for r in runs]
                    assert states[0].keys() == states[1].keys()
                    for key in states[0]:
                        assert np.array_equal(states[0][key], states[1][key]), (name, key)

    def test_model_with_placements_is_its_own_build(self, tmp_path):
        run = resolve_run(tiny_spec(tmp_path))
        assert run.cfg.gca.placements and run.cfg.as_built() is run.cfg
        assert run.model_key == run.cid

    def test_sweep_trains_each_model_once_per_seed(self, tmp_path, monkeypatch):
        spec = SweepSpec(base=tiny_spec(tmp_path, seeds=(0, 1)), axes=INERT_AXES)
        calls = counting_run_train(monkeypatch)
        records = run_sweep(spec)
        assert len(records) == 8 and len(calls) == 6
        cells = [resolve_run(run) for _, run in enumerate_sweep(spec)]
        sigmoid, tanh = cells[0], cells[1]
        assert not sigmoid.cfg.gca.placements and sigmoid.model_key == tanh.model_key
        assert {cid for cid, _ in calls} == {run.cid for run in cells} - {tanh.cid}
        by_cell = {(r.config_id, r.seed): r for r in records}
        out = Path(spec.base.output_dir)
        for seed in (0, 1):
            twin = by_cell[(tanh.cid, seed)]
            assert twin == replace(by_cell[(sigmoid.cid, seed)], config_id=tanh.cid)
            payload = json.loads(cell_path(out, tanh.cid, seed).read_text())
            assert payload["resolved"]["model"]["gca"]["gate_activation"] == "tanh"
            assert payload["resolved"]["config_id"] == tanh.cid
            assert (out / "checkpoints" / f"{tanh.cid}-seed{seed}.ckpt").read_bytes() == (
                out / "checkpoints" / f"{sigmoid.cid}-seed{seed}.ckpt"
            ).read_bytes()

    def test_twin_of_a_failed_cell_trains_itself(self, tmp_path, monkeypatch):
        spec = SweepSpec(base=tiny_spec(tmp_path, seeds=(0,)), axes=INERT_AXES)
        first = resolve_run(enumerate_sweep(spec)[0][1]).cid
        calls = []
        original = runner.run_train

        def fail_first(run, seed, *args, **kwargs):
            calls.append(run.cid)
            if run.cid == first:
                raise NanLossError("boom")
            return original(run, seed, *args, **kwargs)

        monkeypatch.setattr(runner, "run_train", fail_first)
        records = run_sweep(spec)
        assert len(calls) == 4 and len(records) == 3
        alone = tmp_path / "alone"
        twin = enumerate_sweep(spec)[1][1]
        assert run_cell(replace(twin, output_dir=str(alone)), 0) in records
        assert checkpoint_bytes(alone).items() <= checkpoint_bytes(Path(spec.base.output_dir)).items()

    @pytest.mark.parametrize("victim", [0, 1], ids=["first", "twin"])
    def test_resume_restores_a_deleted_cell_with_the_same_bytes(self, tmp_path, monkeypatch, victim):
        spec = SweepSpec(base=tiny_spec(tmp_path, seeds=(0, 1)), axes=INERT_AXES)
        run_sweep(spec)
        out = Path(spec.base.output_dir)
        before = {"cells": cell_files(out), "checkpoints": checkpoint_bytes(out)}
        cid = resolve_run(enumerate_sweep(spec)[victim][1]).cid
        cell_path(out, cid, 1).unlink()
        (out / "checkpoints" / f"{cid}-seed1.ckpt").unlink()
        calls = counting_run_train(monkeypatch)
        run_sweep(spec, resume=True)
        # The twin copies its loaded first cell; a deleted first cell trains.
        assert calls == ([(cid, 1)] if victim == 0 else [])
        assert {"cells": cell_files(out), "checkpoints": checkpoint_bytes(out)} == before


# -- command exit codes --------------------------------------------------------------------------


DROP = object()

# case: (command, edits of the tiny spec's payload by dotted path, words stderr names)
CONFIG_ERRORS = {
    "data-missing-key": ("train", {"data.cross_corr": DROP}, ["data", "cross_corr"]),
    "gen-data-missing-key": ("gen-data", {"data.cross_corr": DROP}, ["data", "cross_corr"]),
    "training-unknown-key": ("train", {"training": {"learning_rate": 0.01}}, ["training", "learning_rate"]),
    "model-key-typo": ("train", {"model.widht": 16}, ["model", "widht"]),
    "seeds-not-a-list": ("train", {"seeds": 3}, ["seeds"]),
    "model-not-a-mapping": ("train", {"model": 3}, ["model"]),
    "axes-not-a-mapping": ("sweep", {"axes": 3}, ["axis"]),
    "training-axis-typo": ("sweep", {"axes": {"training.learning_rate": [0.01]}}, ["training", "learning_rate"]),
    "gca-variant-key-typo": (
        "scaling-curve", {"arms": {"gca": {"gca.placements": [0], "gca.head": 2}}, "width_grid": [8]},
        ["arm 'gca'", "head"],
    ),
    "old-gca-variant-key": (
        "scaling-curve", {"gca_variant": {"placements": [0]}, "width_grid": [8]}, ["'gca_variant'"],
    ),
    "width-grid-not-integers": (
        "scaling-curve", {"arms": {"gca": {"gca.placements": [0]}}, "width_grid": ["a"]}, ["width_grid"],
    ),
    "missing-data-file": ("train", {"data": {"path": "no-such.tsv"}}, ["no-such.tsv"]),
    "model-heads-zero": ("train", {"model.heads": 0}, ["heads"]),
    "model-heads-negative": ("train", {"model.heads": -4}, ["heads"]),
    "model-d-wrong-type": ("train", {"model.d": "16"}, ["model.d", "int"]),
    "training-lr-wrong-type": ("train", {"training.lr": "0.1"}, ["training.lr", "float"]),
    # json writes and reads these floats as the literals Infinity and NaN.
    "training-lr-infinite": ("train", {"training.lr": float("inf")}, ["lr", "inf"]),
    "training-lr-nan": ("train", {"training.lr": float("nan")}, ["lr", "nan"]),
    "seeds-negative": ("train", {"seeds": [-3]}, ["seeds", "-3"]),
    "data-seed-negative": ("train", {"data.seed": -1}, ["seed", "-1"]),
    "gen-data-seed-negative": ("gen-data", {"data.seed": -1}, ["seed", "-1"]),
    "eval-negatives-above-pool": (
        "train", {"training.eval_negatives": 10000}, ["eval_negatives=10000", "domain A"],
    ),
    "top-level-key-typo": ("train", {"seed": [0]}, ["run spec", "'seed'"]),
    "training-section-typo": ("train", {"trainig": {"epochs": 1}}, ["run spec", "trainig"]),
    "seeds-boolean": ("train", {"seeds": [True, False]}, ["seeds", "True"]),
    "width-grid-boolean": (
        "scaling-curve", {"arms": {"gca": {"gca.placements": [0]}}, "width_grid": [True, 8]},
        ["width_grid", "True"],
    ),
    "data-path-extra-key": ("train", {"data": {"path": "x.tsv", "seed": 3}}, ["path", "seed"]),
    "output-dir-null": ("train", {"output_dir": None}, ["output_dir", "None"]),
    "train-on-sweep-file": ("train", {"axes": {"d": [8, 16]}}, ["run spec", "'axes'"]),
}


# case: (key, RunSpec override) built in Python past any mapping; the type
# gate checks a built instance's fields, and seeds, as it checks a file's.
DIRECT_BUILDS = {
    "training-epochs-int64": (
        "training.epochs", {"training": TrainingParams(epochs=np.int64(0), eval_negatives=5)},
    ),
    "seeds-int64": ("seeds", {"seeds": (np.int64(0),)}),
    "data-users-int64": (
        "data.users",
        {"data": SynthSpec(users=np.int64(30), items_per_domain=40, cross_corr=0.7,
                           seq_len_range=(4, 8), seed=3)},
    ),
    "seeds-boolean": ("seeds", {"seeds": (True,)}),
    "data-seq-len-float": (
        "data.seq_len_range",
        {"data": SynthSpec(users=40, items_per_domain=40, cross_corr=0.7,
                           seq_len_range=(3.9, 10), seed=3)},
    ),
    "gca-placements-boolean": (
        "model.gca.placements",
        {"model": {**tiny_spec(Path(".")).model,
                   "gca": GcaConfig(placements=(True,), kv_source="pairwise", heads=2)}},
    ),
}

# case: (dotted path, value) a config built in Python can carry and a JSON
# file cannot; config_id and data_descriptor could not encode it.
NUMPY_SCALARS = {
    "model-d-int64": ("model.d", np.int64(8)),
    "seeds-int64": ("seeds", [np.int64(0)]),
    "training-epochs-int64": ("training.epochs", np.int64(0)),
    "training-lr-float32": ("training.lr", np.float32(0.01)),
    "data-users-int64": ("data.users", np.int64(30)),
}


def edited_payload(tmp_path, edits, **overrides):
    """The tiny spec's payload, edited by dotted path; DROP deletes a key."""
    payload = tiny_spec(tmp_path, **overrides).to_dict()
    for path, value in edits.items():
        *parents, last = path.split(".")
        node = payload
        for part in parents:
            node = node[part]
        if value is DROP:
            del node[last]
        else:
            node[last] = value
    return payload


def write_config(tmp_path, edits, **overrides):
    """The edited tiny spec as a config file."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(edited_payload(tmp_path, edits, **overrides)))
    return str(config)


class TestExitCodes:
    @pytest.mark.parametrize("case", sorted(CONFIG_ERRORS))
    def test_config_problem_exits_two(self, tmp_path, monkeypatch, capsys, case):
        command, edits, words = CONFIG_ERRORS[case]
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, edits)
        out = tmp_path / "out"
        assert main([command, "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        for word in words:
            assert word in err
        assert not list(out.glob("cells/**/*"))

    @pytest.mark.parametrize("case", sorted(NUMPY_SCALARS))
    def test_numpy_scalar_is_a_config_error(self, tmp_path, case):
        path, value = NUMPY_SCALARS[case]
        payload = edited_payload(tmp_path, {path: value})
        with pytest.raises(ConfigError, match=f"{path} must be"):
            resolve_run(RunSpec.from_dict(payload))

    @pytest.mark.parametrize("case", sorted(DIRECT_BUILDS))
    def test_directly_built_spec_is_type_checked(self, tmp_path, case):
        key, overrides = DIRECT_BUILDS[case]
        overrides = {"training": TrainingParams(epochs=0, eval_negatives=5), "seeds": (0,), **overrides}
        with pytest.raises(ConfigError, match=f"{key} must be"):
            spec = tiny_spec(tmp_path, **overrides)
            run_cell(resolve_run(spec), spec.seeds[0])
        assert not list((tmp_path / "out").glob("cells/**/*"))

    def test_config_with_leading_bom_is_read(self, tmp_path):
        plain = write_config(tmp_path, {})
        bom = tmp_path / "bom.json"
        bom.write_bytes(b"\xef\xbb\xbf" + Path(plain).read_bytes())
        assert load_config(str(bom)) == load_config(plain)

    @pytest.mark.parametrize("target", ["config", "data"])
    def test_non_utf8_file_exits_two_naming_it(self, tmp_path, capsys, target):
        data = tmp_path / "events.tsv"
        data.write_bytes("0\t1\tA\t1\n0\t2\tB\t2\n".encode())
        config = Path(write_config(tmp_path, {"data": {"path": str(data)}}))
        latin1 = {"config": config, "data": data}[target]
        latin1.write_bytes("// café\n".encode("latin-1") + latin1.read_bytes())
        out = tmp_path / "out"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(latin1) in err
        assert not list(out.glob("cells/**/*"))

    def test_negative_seed_flag_exits_two(self, tmp_path, capsys):
        config = write_config(tmp_path, {})
        out = tmp_path / "out"
        assert main(["train", "--config", config, "--out", str(out), "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "seeds" in err and "-1" in err
        assert not list(out.glob("cells/**/*"))

    def test_bad_grid_point_fails_before_any_cell(self, tmp_path, capsys):
        # d=8: one head divides it, three do not.
        config = write_config(tmp_path, {"axes": {"heads": [1, 3]}})
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not list(out.glob("cells/**/*"))

    def test_train_exits_one_when_a_seed_fails(self, tmp_path, monkeypatch, capsys):
        def nan_train(*args, **kwargs):
            raise NanLossError("loss exploded")

        monkeypatch.setattr("gcalab.runner.run_train", nan_train)
        config = write_config(tmp_path, {}, seeds=(0, 1))
        assert main(["train", "--config", config, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "seed 0: failed" in err and "seed 1: failed" in err
        assert (tmp_path / "out" / "results.csv").exists()

    def test_sweep_exits_one_when_a_cell_fails(self, tmp_path, monkeypatch, capsys):
        calls = []
        original = run_train

        def first_cell_fails(*args, **kwargs):
            calls.append(None)
            if len(calls) == 1:
                raise NanLossError("loss exploded")
            return original(*args, **kwargs)

        monkeypatch.setattr("gcalab.runner.run_train", first_cell_fails)
        config = write_config(
            tmp_path, {"axes": {"gca.gate_activation": ["sigmoid", "tanh"]}}, seeds=(0,)
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "1 records" in captured.out
        assert "1 cells failed" in captured.err
        assert sorted(payload["failed"] for payload in cell_files(out).values()) == [False, True]

    def test_any_exception_in_a_cell_is_recorded(self, tmp_path, monkeypatch, capsys):
        def out_of_memory(*args, **kwargs):
            raise MemoryError("cannot allocate the position table")

        monkeypatch.setattr("gcalab.runner.run_train", out_of_memory)
        config = write_config(tmp_path, {}, seeds=(0,))
        out = tmp_path / "out"
        assert main(["train", "--config", config, "--out", str(out)]) == 1
        assert "seed 0: failed" in capsys.readouterr().err
        [payload] = cell_files(out).values()
        assert payload["failed"] is True
        assert payload["error"] == "MemoryError: cannot allocate the position table"
        assert "out_of_memory" in payload["traceback"]

    def test_keyboard_interrupt_stops_the_command(self, tmp_path, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("gcalab.runner.run_train", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_cell(tiny_spec(tmp_path), 0)
        assert not cell_files(tmp_path / "out")


# -- parameter matching ------------------------------------------------------------------------


def plain_config(d=8, heads=1, vocab=120):
    return ModelConfig(
        vocab_a=vocab, vocab_b=vocab, d=d, layers=2, heads=heads,
        encoder_sharing="independent", max_len=16,
    )


class TestMatchParameters:
    def test_fixed_point_returns_baseline(self):
        cfg = plain_config(d=16, heads=4)
        matched, achieved = match_parameters(cfg, count_parameters(cfg), tolerance=0.02)
        assert matched == cfg
        assert achieved == count_parameters(cfg)

    def test_gca_target_matched_within_two_percent(self):
        baseline = plain_config(d=32, heads=1)
        gca_cfg = replace(
            baseline, gca=GcaConfig(placements=(0,), kv_source="pairwise", heads=2)
        )
        target = count_parameters(gca_cfg)
        matched, achieved = match_parameters(baseline, target, tolerance=0.02)
        assert abs(achieved - target) / target <= 0.02
        assert matched.heads == baseline.heads
        assert matched.d % matched.heads == 0

    def test_result_is_lattice_argmin(self):
        # Oracle: linear scan over every legal width up to a generous bound.
        baseline = plain_config(d=8, heads=4)
        rng = np.random.default_rng(5)
        for _ in range(10):
            target = int(rng.integers(20_000, 200_000))
            try:
                matched, achieved = match_parameters(baseline, target, tolerance=0.5)
            except InfeasibleMatchError:
                continue
            widths = range(4, 1024, 4)
            best = min(widths, key=lambda d: abs(count_parameters(replace(baseline, d=d)) - target))
            assert matched.d == best

    @pytest.mark.parametrize(
        "heads,gca_heads,adapter_rank,placements",
        [
            (1, 1, None, ()), (2, 2, None, ()), (3, 2, None, ()), (4, 1, None, ()),
            (1, 3, None, (0,)), (2, 3, None, (0,)), (4, 2, None, (0, 1)), (3, 4, None, (0,)),
            (1, 1, 5, ()), (2, 4, 9, (0,)), (3, 3, 2, (0, 1, 2)), (4, 4, 9, (2,)),
        ],
    )
    def test_nearest_allowed_width_by_brute_force(self, heads, gca_heads, adapter_rank, placements):
        # Oracle: every width in [2, 400] that ModelConfig accepts; the
        # nearest count wins, ties going to the smaller width.
        def wired(d):
            return ModelConfig(
                vocab_a=120, vocab_b=90, d=d, layers=2, heads=heads, max_len=16, adapter_rank=adapter_rank,
                gca=GcaConfig(placements=placements, kv_source="pairwise", heads=gca_heads),
            )

        allowed = {}
        for d in range(2, 401):
            try:
                allowed[d] = count_parameters(wired(d))
            except ConfigError:
                continue
        baseline = wired(min(allowed))
        counts = sorted(allowed.values())
        midpoints = [(lo + hi) // 2 for lo, hi in zip(counts, counts[1:])]
        rng = np.random.default_rng(heads * 100 + gca_heads * 10 + len(placements))
        targets = [1, counts[0], counts[-1]] + midpoints[::30] + rng.integers(1, counts[-1], 6).tolist()
        for target in targets:
            matched, achieved = match_parameters(baseline, target, tolerance=float("inf"))
            best = min(allowed, key=lambda d: (abs(allowed[d] - target), d))
            assert (matched.d, achieved) == (best, allowed[best])
            assert matched == wired(best)

    def test_gca_baseline_width_is_a_python_int(self):
        baseline = replace(
            plain_config(d=16), gca=GcaConfig(placements=(0,), kv_source="pairwise", heads=2)
        )
        target = count_parameters(replace(baseline, d=30))
        matched, achieved = match_parameters(baseline, target)
        assert type(matched.d) is int and achieved == target
        assert config_id(matched, {"kind": "synthetic"}, TrainingParams()) != ""

    def test_infeasible_target_reports_nearest(self):
        baseline = plain_config(d=8, heads=4)
        with pytest.raises(InfeasibleMatchError, match="nearest"):
            match_parameters(baseline, 10, tolerance=0.02)

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ConfigError, match="tolerance"):
            match_parameters(plain_config(), 1000, tolerance=0.0)


# -- scaling curve -------------------------------------------------------------------------------


class TestScalingCurve:
    def run(self, tmp_path, width_grid):
        return run_comparison(self.spec(tmp_path, width_grid))

    def spec(self, tmp_path, width_grid, arms=None, seeds=(0,)):
        base = tiny_spec(
            tmp_path,
            model={
                "d": 8, "layers": 1, "heads": 1, "encoder_sharing": "independent",
                "combined_thread": False, "dropout_p": 0.0, "max_len": 8,
            },
            seeds=seeds,
        )
        return ComparisonSpec(base=base, arms=arms or {"gca": GCA_ARM}, width_grid=width_grid)

    def test_report_schema_and_matching(self, tmp_path):
        report = self.run(tmp_path, [6, 12])
        [match] = report.matches
        assert match.arm == "gca"
        assert match.relative_error <= 0.02
        baselines = [p for p in report.points if p.kind == "baseline"]
        gca_points = [p for p in report.points if p.kind == "gca"]
        assert len(gca_points) == 1
        counts = [p.param_count for p in baselines]
        assert counts == sorted(counts)
        assert all(b > a for a, b in zip(counts, counts[1:]))
        assert match.matched_width in [p.d for p in baselines]
        assert gca_points[0].param_count == match.target_params

    def test_gca_count_inside_bracketing_hull(self, tmp_path):
        report = self.run(tmp_path, [6, 12])
        counts = [p.param_count for p in report.points if p.kind == "baseline"]
        gca_count = next(p.param_count for p in report.points if p.kind == "gca")
        assert min(counts) <= gca_count <= max(counts)

    def test_artifacts_written(self, tmp_path):
        self.run(tmp_path, [6, 12])
        out = tmp_path / "out"
        assert (out / "scaling.csv").exists()
        assert (out / "scaling.svg").exists()
        payload = json.loads((out / "scaling_report.json").read_text())
        assert {p["kind"] for p in payload["points"]} == {"baseline", "gca"}

    def test_minimal_grid_runs_two_point_protocol(self, tmp_path):
        base_d = 8
        report = self.run(tmp_path, [base_d])
        kinds = sorted(p.kind for p in report.points)
        assert kinds.count("gca") == 1
        assert kinds.count("baseline") >= 1

    def test_failed_point_keeps_the_rollup_of_the_rest(self, tmp_path, monkeypatch):
        real_train = runner.run_train

        def train_or_fail(run, seed, **kwargs):
            if run.cfg.d == 12:
                raise NanLossError("loss exploded")
            return real_train(run, seed, **kwargs)

        monkeypatch.setattr("gcalab.runner.run_train", train_or_fail)
        with pytest.raises(ContractError, match="baseline d=12"):
            self.run(tmp_path, [6, 12])
        out = tmp_path / "out"
        payload = json.loads((out / "scaling_report.json").read_text())
        widths = [(p["kind"], p["d"]) for p in payload["points"]]
        assert ("baseline", 6) in widths and ("gca", 8) in widths
        assert ("baseline", 12) not in widths
        rows = (out / "scaling.csv").read_text().splitlines()
        assert len(rows) == 1 + len(widths)
        assert (out / "scaling.svg").exists()

    def test_two_arms_share_one_source_and_match_each(self, tmp_path, monkeypatch, counters):
        arms = {"gca": GCA_ARM, "gca_wide_gate": {**GCA_ARM, "gca.gate_hidden": 16}}
        runs = []
        original = runner.run_cells

        def spy(batch, resume=False):
            runs.extend(batch)
            return original(batch, resume)

        monkeypatch.setattr(runner, "run_cells", spy)
        report = run_comparison(self.spec(tmp_path, [6], arms=arms))
        assert [m.arm for m in report.matches] == list(arms)
        targets = [m.target_params for m in report.matches]
        assert targets[0] < targets[1]
        assert len({m.matched_width for m in report.matches}) == 2
        for match in report.matches:
            assert match.relative_error <= 0.02
            arm_point = next(p for p in report.points if p.kind == match.arm)
            assert arm_point.param_count == match.target_params
            assert ("baseline", match.matched_width) in [(p.kind, p.d) for p in report.points]
        assert [p.kind for p in report.points][-2:] == list(arms)
        # Every arm ranks one DataSource's lists: users x 2 domains x 2 stages.
        assert len({id(run.source) for run in runs}) == 1
        assert counters["sample_negatives"] == len(runs[0].source.dataset) * 2 * 2
        payload = json.loads((tmp_path / "out" / "scaling_report.json").read_text())
        assert [m["arm"] for m in payload["matches"]] == list(arms)

    def test_cli_exits_one_when_one_seed_of_a_point_fails(self, tmp_path, monkeypatch, capsys):
        spec = self.spec(tmp_path, [6, 12], seeds=(0, 1))
        config = tmp_path / "scaling.json"
        config.write_text(json.dumps({**spec.base.to_dict(), "arms": spec.arms, "width_grid": [6, 12]}))
        real_train = runner.run_train

        def train_or_fail(run, seed, **kwargs):
            if run.cfg.d == 12 and seed == 1:
                raise NanLossError("loss exploded")
            return real_train(run, seed, **kwargs)

        monkeypatch.setattr("gcalab.runner.run_train", train_or_fail)
        assert main(["scaling-curve", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "baseline d=12 seed 1" in err and "seed 0" not in err
        out = tmp_path / "out"
        payload = json.loads((out / "scaling_report.json").read_text())
        assert ("baseline", 12) in [(p["kind"], p["d"]) for p in payload["points"]]
        assert (out / "scaling.csv").exists() and (out / "scaling.svg").exists()


@dataclass
class _ReferencePoint:
    """A scaling point with its mean as a property, as it was before the
    mean became a field."""

    kind: str
    d: int
    config_id: str
    param_count: int
    mean_ndcg10_a: float
    mean_ndcg10_b: float

    @property
    def mean_ndcg10(self) -> float:
        return (self.mean_ndcg10_a + self.mean_ndcg10_b) / 2.0


class TestScalingParity:
    """The scaling curve against the hand-built arms and the hand-written
    rendering it replaced: equal config ids and equal bytes."""

    @staticmethod
    def _reference_runs(spec):
        base, shared = spec.base, {}

        def resolve_for(model):
            return resolve_run(replace(base, model=model), shared)

        baseline = {**base.model, "gca": {"placements": ()}}
        gca_run = resolve_for({**base.model, "gca": GCA_ARM_BLOCK})
        matched, _ = match_parameters(resolve_for(baseline).cfg, count_parameters(gca_run.cfg))
        widths = sorted(set(spec.width_grid) | {matched.d})
        return [resolve_for({**baseline, "d": width}) for width in widths] + [gca_run]

    @staticmethod
    def _reference_render(report, out):
        points = [
            _ReferencePoint(**{f.name: getattr(p, f.name) for f in dataclasses.fields(_ReferencePoint)})
            for p in report.points
        ]
        [match] = report.matches
        payload = {
            "points": [{**dataclasses.asdict(p), "mean_ndcg10": p.mean_ndcg10} for p in points],
            "matches": [
                {
                    "arm": "gca",
                    "target_params": match.target_params,
                    "matched_width": match.matched_width,
                    "achieved_params": match.achieved_params,
                    "relative_error": match.relative_error,
                }
            ],
        }
        runner._write_json(out / "scaling_report.json", payload)
        runner._write_csv(
            out / "scaling.csv",
            [f.name for f in dataclasses.fields(_ReferencePoint)] + ["mean_ndcg10"],
            [(*dataclasses.astuple(p), p.mean_ndcg10) for p in points],
        )
        series = {
            kind: [(float(p.param_count), p.mean_ndcg10) for p in points if p.kind == kind]
            for kind in ("baseline", "gca")
        }
        write_svg(
            out / "scaling.svg",
            scatter_svg(series, "parameters", "mean test NDCG@10", "Accuracy versus parameters"),
        )

    def test_bitwise_equal_to_hand_built_curve(self, tmp_path, monkeypatch, counters):
        spec = TestScalingCurve().spec(tmp_path, [6, 12])
        arms = []
        original = runner.run_cells

        def spy(runs, resume=False):
            arms.extend(runs)
            return original(runs, resume)

        monkeypatch.setattr(runner, "run_cells", spy)
        report = run_comparison(spec)

        reference = self._reference_runs(spec)
        assert [run.cid for run in arms] == [run.cid for run in reference]
        assert [p.config_id for p in report.points] == [run.cid for run in reference]
        # Every arm ranks one DataSource's lists: users x 2 domains x 2 stages.
        assert len({id(run.source) for run in arms}) == 1
        assert counters["sample_negatives"] == len(arms[0].source.dataset) * 2 * 2

        ref = tmp_path / "reference"
        self._reference_render(report, ref)
        for name in ("scaling_report.json", "scaling.csv", "scaling.svg"):
            assert (tmp_path / "out" / name).read_bytes() == (ref / name).read_bytes(), name


# -- analysis ----------------------------------------------------------------------------------


def make_record(config_id_="cfg0", seed=0, **overrides):
    values = dict(
        config_id=config_id_, seed=seed,
        ndcg1_a=0.2, ndcg1_b=0.25, ndcg10_a=0.4, ndcg10_b=0.45,
        auc_a=0.6, auc_b=0.65, cos_xxprime_a=0.3, cos_xxprime_b=0.35,
        cos_xy_a=0.5, cos_xy_b=0.55, param_count=1000, epoch_of_best=3,
    )
    values.update(overrides)
    return MetricsRecord(**values)


def write_cell(output_dir, record, placements=(0,)):
    path = cell_path(output_dir, record.config_id, record.seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    resolved = {"config_id": record.config_id, "seed": record.seed,
                "model": {"gca": {"placements": list(placements)}}}
    path.write_text(json.dumps({"failed": False, "record": record.to_dict(), "resolved": resolved}))


class _DiskFull:
    """A file whose every write stores half its bytes, then fails as a
    full disk does."""

    def __init__(self, handle):
        self._handle = handle

    def write(self, data):
        self._handle.write(data[: len(data) // 2])
        self._handle.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()

    def __getattr__(self, name):
        return getattr(self._handle, name)


def fill_disk(monkeypatch, root):
    """From here on, a file opened for writing under ``root``, through the
    builtin ``open`` or ``io.open`` (which ``Path.write_text`` calls), is a
    _DiskFull."""
    real_open = io.open

    def open_(file, mode="r", *args, **kwargs):
        handle = real_open(file, mode, *args, **kwargs)
        if set(mode) & set("wax") and isinstance(file, (str, Path)) and Path(file).is_relative_to(root):
            return _DiskFull(handle)
        return handle

    monkeypatch.setattr(builtins, "open", open_)
    monkeypatch.setattr(io, "open", open_)


class TestAnalyze:
    def test_requires_three_records(self, tmp_path):
        write_cell(tmp_path, make_record(seed=0))
        write_cell(tmp_path, make_record(seed=1))
        with pytest.raises(ContractError, match="3"):
            analyze(tmp_path)

    def test_constructed_monotone_gives_r_minus_one(self, tmp_path):
        for seed, (cos, ndcg) in enumerate([(0.1, 0.5), (0.2, 0.4), (0.3, 0.3), (0.4, 0.2)]):
            write_cell(tmp_path, make_record(seed=seed, cos_xxprime_a=cos, ndcg10_a=ndcg))
        report = analyze(tmp_path)
        result = report.correlation("a", "cos_xxprime", "ndcg10")
        assert result.r == pytest.approx(-1.0, abs=1e-12)

    def test_identical_records_omit_correlations(self, tmp_path):
        for seed in range(4):
            write_cell(tmp_path, make_record(seed=seed))
        report = analyze(tmp_path)
        assert all(c.r is None for c in report.correlations)
        assert all(c.note for c in report.correlations)

    def test_five_number_summary_matches_sort_oracle(self, tmp_path):
        values = [0.12, 0.5, 0.31, 0.07, 0.44]
        for seed, value in enumerate(values):
            write_cell(tmp_path, make_record(seed=seed, cos_xxprime_a=value,
                                             ndcg10_a=0.1 + 0.1 * seed))
        report = analyze(tmp_path)
        ordered = sorted(values)
        summary = report.summaries["cos_xxprime_a"]
        assert summary["min"] == ordered[0]
        assert summary["max"] == ordered[-1]
        assert summary["median"] == ordered[2]

    def test_artifacts_and_csv_content(self, tmp_path):
        for seed in range(4):
            write_cell(tmp_path, make_record(seed=seed, cos_xxprime_a=0.1 * (seed + 1),
                                             ndcg10_a=0.1 * (4 - seed)))
        report = analyze(tmp_path)
        assert (tmp_path / "analysis.csv").exists()
        assert (tmp_path / "cosine_summary.csv").exists()
        assert (tmp_path / "orthogonality_a.svg").exists()
        assert (tmp_path / "cosine_box.svg").exists()
        lines = (tmp_path / "analysis.csv").read_text().strip().splitlines()
        assert lines[0] == "domain,x,y,n,r,note"
        assert len(lines) == 1 + 6
        assert report.record_count == 4

    def test_failed_cells_excluded(self, tmp_path):
        for seed in range(3):
            write_cell(tmp_path, make_record(seed=seed, ndcg10_a=0.1 * (seed + 1)))
        bad = cell_path(tmp_path, "cfg0", 9)
        bad.parent.mkdir(parents=True, exist_ok=True)
        resolved = {"config_id": "cfg0", "seed": 9}
        bad.write_text(json.dumps({"failed": True, "error": "NanLossError: x", "resolved": resolved}))
        assert len(load_records(tmp_path)) == 3

    def test_cosine_statistics_leave_out_cells_without_placement(self, tmp_path):
        gated = [(0.1, 0.5), (0.2, 0.4), (0.3, 0.3), (0.4, 0.2)]
        for seed, (cos, ndcg) in enumerate(gated):
            write_cell(tmp_path, make_record(seed=seed, cos_xxprime_a=cos, ndcg10_a=ndcg))
        for seed, ndcg in enumerate((0.1, 0.9, 0.05)):
            plain = make_record("plain", seed=seed, cos_xxprime_a=0.0, cos_xxprime_b=0.0,
                                cos_xy_a=0.0, cos_xy_b=0.0, ndcg10_a=ndcg)
            write_cell(tmp_path, plain, placements=())
        report = analyze(tmp_path)
        result = report.correlation("a", "cos_xxprime", "ndcg10")
        assert result.n == 4 and result.r == pytest.approx(-1.0, abs=1e-12)
        assert report.correlation("a", "ndcg10", "auc").n == 7
        assert report.summaries["cos_xxprime_a"]["min"] == 0.1
        assert report.summaries["cos_xy_b"]["min"] == 0.55
        summary = five_number_summary([cos for cos, _ in gated])
        lines = (tmp_path / "cosine_summary.csv").read_text().splitlines()
        assert lines[1] == ",".join(["cos_xxprime_a"] + [repr(value) for value in summary.values()])

    def test_fewer_than_three_gca_cells_leave_r_empty(self, tmp_path):
        for seed in range(2):
            write_cell(tmp_path, make_record(seed=seed, cos_xxprime_a=0.1 * (seed + 1)))
        for seed in range(2):
            write_cell(tmp_path, make_record("plain", seed=seed, ndcg10_a=0.1 * (seed + 1)), placements=())
        assert main(["analyze", "--out", str(tmp_path)]) == 0
        with open(tmp_path / "analysis.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert {len(row) for row in rows} == {6}
        note = "needs at least 3 cells with a GCA placement, found 2"
        assert rows[1] == ["a", "cos_xxprime", "ndcg10", "2", "", note]
        report = analyze(tmp_path)
        assert report.summaries["cos_xxprime_a"]["max"] == 0.2
        assert (tmp_path / "cosine_box.svg").exists()
        assert "omitted (needs at least 3 cells" in write_report(tmp_path).read_text()

    def test_cli_names_why_a_correlation_is_omitted(self, tmp_path, capsys):
        for seed in range(2):
            write_cell(tmp_path, make_record(seed=seed, cos_xxprime_a=0.1 * (seed + 1)))
        for seed in range(3):
            write_cell(tmp_path, make_record("plain", seed=seed, ndcg10_a=0.1 * (seed + 1)), placements=())
        assert main(["analyze", "--out", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (
            "domain a: r(cos_xxprime, ndcg10) = omitted "
            "(needs at least 3 cells with a GCA placement, found 2) over 2 runs"
        )

    def test_no_gca_cell_leaves_quantiles_empty(self, tmp_path):
        for seed in range(4):
            write_cell(tmp_path, make_record(seed=seed, ndcg10_a=0.1 * (seed + 1)))
        analyze(tmp_path)
        assert (tmp_path / "cosine_box.svg").exists()
        for seed in range(4):
            write_cell(tmp_path, make_record(seed=seed, ndcg10_a=0.1 * (seed + 1)), placements=())
        assert main(["analyze", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "cosine_summary.csv").read_text().splitlines()
        assert lines[1:] == [f"{name},,,,," for name in ("cos_xxprime_a", "cos_xxprime_b", "cos_xy_a", "cos_xy_b")]
        assert not list(tmp_path.glob("*.svg"))
        text = write_report(tmp_path).read_text()
        assert "| cos_xxprime_a |  |  |  |  |  |" in text and "cosine_box.svg" not in text
        assert analyze(tmp_path).correlation("b", "ndcg1", "auc").n == 4

    def test_report_after_analyze_reads_each_cell_once_and_rewrites_nothing(self, tmp_path, monkeypatch):
        for seed in range(4):
            write_cell(tmp_path, make_record(seed=seed, cos_xxprime_a=0.1 * (seed + 1),
                                             ndcg10_a=0.1 * (4 - seed)))
        analyze(tmp_path)
        names = ("analysis.csv", "cosine_summary.csv", "orthogonality_a.svg", "orthogonality_b.svg", "cosine_box.svg")
        before = {name: ((tmp_path / name).read_bytes(), (tmp_path / name).stat().st_ino) for name in names}
        reads = Counter()
        read_cell = runner._read_cell

        def counted(path):
            reads[path] += 1
            return read_cell(path)

        monkeypatch.setattr(runner, "_read_cell", counted)
        write_report(tmp_path)
        assert {name: ((tmp_path / name).read_bytes(), (tmp_path / name).stat().st_ino) for name in names} == before
        assert sorted(reads) == sorted((tmp_path / "cells").glob("*/seed*.json"))
        assert set(reads.values()) == {1}

    def test_report_renders_two_records_that_analyze_refuses(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path / "typo")]) == 1
        assert "no cell files under" in capsys.readouterr().err and not (tmp_path / "typo").exists()
        for seed in range(2):
            write_cell(tmp_path, make_record(seed=seed, ndcg10_a=0.1 * (seed + 1)))
        assert main(["report", "--out", str(tmp_path)]) == 0
        text = (tmp_path / "report.md").read_text()
        assert "Records: 2 across 1 configs." in text
        assert "| cfg0 | 2 | 0.1500 | 0.4500 | 0.6000 | 0.6500 | 0.3000 | 1000 |" in text
        assert "| a | ndcg1 vs auc | 2 | omitted (needs at least 3 cells, found 2) |" in text
        note = "needs at least 3 cells with a GCA placement, found 2"
        assert f"| b | cos_xxprime vs ndcg10 | 2 | omitted ({note}) |" in text
        assert sorted(path.name for path in tmp_path.iterdir()) == ["cells", "report.md"]
        assert main(["analyze", "--out", str(tmp_path)]) == 1
        assert "analysis needs at least 3 records, found 2" in capsys.readouterr().err

    def test_report_markdown_mentions_configs_and_correlations(self, tmp_path):
        for seed in range(4):
            write_cell(tmp_path, make_record(seed=seed, cos_xxprime_a=0.1 * (seed + 1),
                                             ndcg10_a=0.1 * (4 - seed)))
        path = write_report(tmp_path)
        text = path.read_text()
        assert "## Correlations across runs" in text
        assert "cos_xxprime vs ndcg10" in text
        assert "cfg0" in text


# -- svg primitives -----------------------------------------------------------------------------


class TestSvg:
    def test_scatter_contains_all_points(self):
        content = scatter_svg({"s": [(0.0, 1.0), (1.0, 2.0), (2.0, 0.5)]}, "x", "y", "t")
        assert content.startswith("<svg")
        assert content.count("<circle") == 3 + 1  # points plus legend marker

    def test_scatter_needs_points(self):
        with pytest.raises(ContractError):
            scatter_svg({"s": []}, "x", "y", "t")

    def test_box_draws_each_group(self):
        summary = {"min": 0.0, "q1": 0.2, "median": 0.4, "q3": 0.6, "max": 1.0}
        content = box_svg({"one": summary, "two": summary}, "value", "title")
        assert content.count("<rect") == 2 + 2  # background + frame + one box each

    def test_box_validates_summary_keys(self):
        with pytest.raises(ContractError, match="missing"):
            box_svg({"bad": {"min": 0.0}}, "v", "t")

    def test_degenerate_range_still_renders(self):
        content = scatter_svg({"s": [(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)]}, "x", "y", "t")
        assert "NaN" not in content

    def test_text_escapes_markup_and_keeps_quotes(self):
        content = scatter_svg({"s": [(0.0, 1.0)]}, "x", "y", 'a & "b" <c\'s>')
        assert '>a &amp; "b" &lt;c\'s&gt;</text>' in content

    def test_import_leaves_the_network_stack_unloaded(self):
        probe = (
            "import sys, numpy; before = set(sys.modules); import gcalab; "
            "print(sorted(set(sys.modules) - before))"
        )
        src = str(Path(gcalab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        added = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        ).stdout
        for name in ("urllib.request", "http.client", "email", "ssl"):
            assert f"'{name}'" not in added, name

    def test_write_svg_creates_parents(self, tmp_path):
        target = tmp_path / "nested" / "plot.svg"
        write_svg(target, scatter_svg({"s": [(0, 0)]}, "x", "y", "t"))
        assert target.exists()
