"""The three benchmark workloads.

Each workload is a closed loop: one process, one caller, one call into the
lab at a time. ``setup`` builds everything the timed part needs from the data
seed; ``unit`` runs one unit of work, checks its outputs and reports what it
did. Every unit of one run does identical work, so per-unit counts repeat
exactly and every unit must give the same ``record_digest``.

The lab is always reached through module attributes (``runner.run_cell``,
not a name imported here), so the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gcalab import backbone, data, errors, metrics, optim, rng, runner


@dataclass
class Unit:
    """What one unit of work did."""

    attempted: int
    failed: int
    examples: int  # (user, domain) training examples trained
    # perf_counter() at the start and end of the measured work, in which the
    # examples were trained.
    began: float
    ended: float
    digest: str
    problems: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)


def record_problems(record, cfg) -> list[str]:
    """Invariants every cell record must satisfy."""
    problems = []
    for name in metrics.METRIC_FIELDS:
        value = getattr(record, name)
        if not (math.isfinite(value) and 0.0 <= value <= 1.0):
            problems.append(f"{record.config_id}/seed{record.seed}: {name}={value!r}")
    expected = backbone.count_parameters(cfg)
    if record.param_count != expected:
        problems.append(
            f"{record.config_id}/seed{record.seed}: param_count {record.param_count} != {expected}"
        )
    return problems


def records_digest(records) -> str:
    """sha256 over the cell records, sorted by (config_id, seed)."""
    rows = sorted((r.to_dict() for r in records), key=lambda r: (r["config_id"], r["seed"]))
    canonical = json.dumps(rows, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def setup_model(spec: runner.RunSpec):
    """Load the data, resolve the config and build the model, as a cell would."""
    dataset = runner.load_dataset(spec)
    cfg = runner.resolve_model_config(spec, dataset)
    backbone.build(cfg, 0)
    return dataset, cfg


# -- smoke-cell -------------------------------------------------------------------
#
# One run_cell of the acceptance smoke model. Evaluation dominates this cell
# (at 2000 users it took 7.3 s of a 12.0 s traced cell: 20 000
# sample_negatives redraws and per-row metric calls), so this is where
# making evaluation cheap (ROADMAP item 2) acts. A quarter of the acceptance
# users keeps those shares, since every cost here grows with the user count,
# and makes a cell short enough for a run to hold about ten.

SMOKE_MODEL = {
    "d": 32, "layers": 2, "heads": 4,
    "encoder_sharing": "independent", "combined_thread": False,
    "dropout_p": 0.0, "max_len": 16,
    "gca": {
        "placements": [0], "kv_source": "pairwise", "heads": 4,
        "gate_activation": "tanh", "use_layernorm": False,
    },
}
SMOKE_TRAINING = {
    "epochs": 3, "batch_size": 128, "lr": 1e-3,
    "negatives_per_pos": 4, "eval_negatives": 99, "patience": 10,
}


class SmokeCell:
    name = "smoke-cell"
    unit_name = "cell"

    def setup(self, seed: int, workdir: Path):
        spec = runner.RunSpec(
            model=SMOKE_MODEL,
            data=data.SynthSpec(
                users=500, items_per_domain=200, cross_corr=0.7,
                seq_len_range=(3, 10), seed=seed,
            ),
            training=dict(SMOKE_TRAINING),
            seeds=(0,),
            output_dir=str(workdir / "cells"),
        )
        dataset, cfg = setup_model(spec)
        return {"spec": spec, "cfg": cfg, "users": len(dataset)}

    def unit(self, state) -> Unit:
        spec, cfg = state["spec"], state["cfg"]
        started = time.perf_counter()
        record = runner.run_cell(spec, 0)
        ended = time.perf_counter()
        samples = {"cell_s": [ended - started]}
        if record is None:
            return Unit(1, 1, 0, started, ended, "", ["run_cell failed"], samples)
        problems = record_problems(record, cfg)
        examples = state["users"] * 2 * spec.training.epochs
        return Unit(1, int(bool(problems)), examples, started, ended, records_digest([record]),
                    problems, samples)

    def summary(self, units: list[Unit]) -> dict:
        cells = [s for u in units for s in u.samples["cell_s"]]
        return {"cell_s": timing(cells)}


# -- train-steps ------------------------------------------------------------------
#
# A training loop built only from public calls, on the adapter wiring (shared
# encoder, combined thread, rank-8 adapters, GCA at stages 0, 1 and 2 reading
# the combined thread, dropout on). It has no evaluation and no persistence:
# nearly every second goes to autodiff dispatch, backward, Adam and batch
# assembly. It is the bypass for evaluation changes, the showcase for
# tensor-engine changes, and the only workload that runs stage-1 and stage-2
# GCA and the adapters.

ADAPTER_MODEL = {
    "d": 32, "layers": 2, "heads": 4,
    "encoder_sharing": "shared", "combined_thread": True,
    "adapter_rank": 8, "dropout_p": 0.1, "max_len": 32,
    "gca": {"placements": [0, 1, 2], "kv_source": "combined", "heads": 4},
}
# Each unit trains a fresh model for one epoch of 25 steps (400 users in
# batches of 16); a run holds many, so step_ms.p90 has far more than ten
# samples beyond it.
EPISODE_STEPS = 25
MODEL_SEED = 0


class TrainSteps:
    name = "train-steps"
    unit_name = "episode of 25 steps"

    def setup(self, seed: int, workdir: Path):
        spec = runner.RunSpec(
            model=ADAPTER_MODEL,
            data=data.SynthSpec(
                users=400, items_per_domain=200, cross_corr=0.7,
                seq_len_range=(10, 30), seed=seed,
            ),
            training={"batch_size": 16, "negatives_per_pos": 8, "lr": 1e-3},
            seeds=(MODEL_SEED,),
            output_dir=str(workdir),
        )
        dataset, cfg = setup_model(spec)
        return {"spec": spec, "cfg": cfg, "dataset": dataset}

    def unit(self, state) -> Unit:
        spec, cfg, dataset = state["spec"], state["cfg"], state["dataset"]
        params = spec.training
        model = backbone.build(cfg, MODEL_SEED)
        step_s, problems = [], []
        failed = examples = 0
        if model.param_count != backbone.count_parameters(cfg):
            failed += 1
            problems.append(f"param_count {model.param_count} != {backbone.count_parameters(cfg)}")
        optimizer = optim.Adam(model.store.trainable_parameters(), lr=params.lr)
        shuffle_rng = rng.derive_rng(MODEL_SEED, "train", "shuffle")
        negative_rng = rng.derive_rng(MODEL_SEED, "train", "negatives")
        dropout_rng = rng.derive_rng(MODEL_SEED, "train", "dropout")
        include_combined = model.combined_required()
        users = np.arange(len(dataset))
        loss = None
        order = np.empty(0, dtype=np.int64)
        cursor = 0
        began = time.perf_counter()
        while len(step_s) < EPISODE_STEPS:
            if cursor >= len(order):
                order, cursor = shuffle_rng.permutation(users), 0
            batch = order[cursor : cursor + params.batch_size]
            cursor += params.batch_size
            started = time.perf_counter()
            try:
                inputs = data.build_inputs(dataset, batch, "train", cfg.max_len, include_combined)
                positives_a = data.stage_targets(dataset, batch, data.DOMAIN_A, "train")
                positives_b = data.stage_targets(dataset, batch, data.DOMAIN_B, "train")
                optimizer.zero_grad()
                loss = model.training_loss(
                    inputs.batch_a, inputs.batch_b, positives_a, positives_b,
                    params.negatives_per_pos, negative_rng,
                    batch_combined=inputs.batch_combined, train_rng=dropout_rng,
                )
                loss.backward()
                optimizer.step()
            except errors.GcalabError as exc:
                failed += 1
                problems.append(f"step {len(step_s)}: {type(exc).__name__}: {exc}")
                loss = None
            else:
                if not np.isfinite(loss.data).all():
                    failed += 1
                    problems.append(f"step {len(step_s)}: loss {float(loss.data)!r}")
            ended = time.perf_counter()
            step_s.append(ended - started)
            examples += 2 * len(batch)

        digest = hashlib.sha256()
        if loss is not None:
            digest.update(np.asarray(loss.data, dtype="<f8").tobytes())
        for param in sorted(model.store.parameters(), key=lambda p: p.name):
            digest.update(param.name.encode("utf-8"))
            digest.update(np.ascontiguousarray(param.tensor.data, dtype="<f8").tobytes())
        return Unit(EPISODE_STEPS, failed, examples, began, ended,
                    digest.hexdigest(), problems, {"step_s": step_s})

    def summary(self, units: list[Unit]) -> dict:
        steps = [s for u in units for s in u.samples["step_s"]]
        return {
            "step_ms.p50": timing([s * 1e3 for s in steps]),
            "step_ms.p90": timing([s * 1e3 for s in steps], 0.9),
        }


# -- grid-tsv ---------------------------------------------------------------------
#
# A file-backed grid of many short cells (250 users), so per-cell fixed costs
# show: load_dataset (three times per sweep cell), TSV parsing with sidecar
# writes, config resolution, checkpoints, JSON, roll-up and SVG. Resolving
# each cell once and running cells in parallel (ROADMAP item 4) act here. The
# resume pass reads finished cells beside the write path and trains nothing.

GRID_MODEL = {
    "d": 16, "layers": 1, "heads": 2,
    "encoder_sharing": "independent", "combined_thread": False,
    "dropout_p": 0.1, "max_len": 12,
    "gca": {"placements": [0], "kv_source": "pairwise", "heads": 2},
}
GRID_TRAINING = {
    "epochs": 1, "batch_size": 64, "lr": 1e-3,
    "negatives_per_pos": 1, "eval_negatives": 50, "patience": 5,
}
GRID_AXES = {
    "gca.placements": [[], [0]],
    "gca.gate_activation": ["sigmoid", "tanh"],
}
GRID_SEEDS = (0, 1)


class GridTsv:
    name = "grid-tsv"
    unit_name = "grid pass with its resume pass"

    def setup(self, seed: int, workdir: Path):
        # Relative paths: the TSV path is part of every config_id, so the
        # digest must not depend on where the checkout lives.
        tsv = workdir / "events.tsv"
        log = data.generate_synthetic(
            data.SynthSpec(users=250, items_per_domain=60, cross_corr=0.7,
                           seq_len_range=(4, 10), seed=seed)
        )
        data.save_log(log, tsv)
        out = workdir / "grid"
        sweep = runner.SweepSpec(
            base=runner.RunSpec(
                model=GRID_MODEL, data=str(tsv), training=dict(GRID_TRAINING),
                seeds=GRID_SEEDS, output_dir=str(out),
            ),
            axes=GRID_AXES,
        )
        dataset, _ = setup_model(sweep.base)
        cells = len(runner.enumerate_sweep(sweep)) * len(GRID_SEEDS)
        return {"sweep": sweep, "out": out, "users": len(dataset), "cells": cells}

    def unit(self, state) -> Unit:
        sweep, out = state["sweep"], state["out"]
        shutil.rmtree(out, ignore_errors=True)
        cell_s = []
        run_cell = runner.run_cell

        def timed_cell(*args, **kwargs):
            started = time.perf_counter()
            try:
                return run_cell(*args, **kwargs)
            finally:
                cell_s.append(time.perf_counter() - started)

        runner.run_cell = timed_cell
        try:
            started = time.perf_counter()
            records = runner.run_sweep(sweep)
            runner.analyze(out)
            report = runner.write_report(out)
            swept = time.perf_counter()
        finally:
            runner.run_cell = run_cell
        resumed = runner.run_sweep(sweep, resume=True)
        ended = time.perf_counter()
        grid_s, resume_s = swept - started, ended - swept

        problems = []
        cells = state["cells"]
        paths = sorted((out / "cells").glob("*/seed*.json"))
        if len(paths) != cells:
            problems.append(f"{len(paths)} cell files for {cells} cells")
        for path in paths:
            payload = json.loads(path.read_text())
            if payload.get("failed"):
                problems.append(f"{path.name}: {payload.get('error')}")
                continue
            cfg = backbone.ModelConfig(**payload["resolved"]["model"])
            problems += record_problems(metrics.MetricsRecord.from_dict(payload["record"]), cfg)
        if resumed != records:
            problems.append("resume pass returned different records")
        if not report.is_file():
            problems.append("write_report wrote no report")
        failed = min(cells, len(problems))
        examples = len(records) * state["users"] * 2 * sweep.base.training.epochs
        return Unit(cells, failed, examples, started, ended,
                    records_digest(records), problems,
                    {"grid_s": [grid_s], "resume_s": [resume_s], "cell_s": cell_s})

    def summary(self, units: list[Unit]) -> dict:
        grid = [s for u in units for s in u.samples["grid_s"]]
        return {
            "cell_s": timing([s for u in units for s in u.samples["cell_s"]]),
            "grid_s": timing(grid),
            "resume_s": timing([s for u in units for s in u.samples["resume_s"]]),
        }


WORKLOADS = {w.name: w for w in (SmokeCell(), TrainSteps(), GridTsv())}


def timing(values: list[float], q: float = 0.5) -> tuple[float, int]:
    """(quantile ``q`` of ``values``, sample count), by linear interpolation."""
    return float(np.quantile(np.asarray(values, dtype=np.float64), q)), len(values)
