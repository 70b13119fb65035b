"""Experiment orchestration: single runs, sweeps, scaling curves, analysis.

Results layout under a run's output directory:

    cells/<config_id>/seed<k>.json   one cell per config x seed, atomic rename
    checkpoints/<config_id>-seed<k>.ckpt
    results.csv                      roll-up of all successful cells
    aggregates.csv                   per-config mean/sd over seeds
    item_map_{a,b}.tsv               raw -> dense item ids, for TSV data

A cell file embeds the fully resolved model/data/training configuration, so
any recorded run can be reproduced bit for bit from the file alone.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import operator
import os
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .backbone import DualDomainModel, ModelConfig, build, count_parameters
from .checkpoint import save_checkpoint
from .data import (
    DOMAIN_A,
    DOMAIN_B,
    ModelInputs,
    SplitDataset,
    SynthSpec,
    build_inputs,
    generate_synthetic,
    load_log,
    sample_negatives,
    save_item_maps,
    split_leave_one_out,
    stage_targets,
)
from .errors import (
    ConfigError,
    ContractError,
    InfeasibleMatchError,
    UndefinedCorrelationError,
    from_mapping,
)
from .gca import GcaConfig, GcaProbe
from .metrics import (
    METRIC_FIELDS,
    RECORD_COLUMNS,
    AggregateSummary,
    MetricsRecord,
    aggregate_over_seeds,
    auc,
    five_number_summary,
    ndcg_at_k,
    pearson_r,
)
from .optim import Adam
from .rng import derive_rng
from .svg import box_svg, scatter_svg, write_svg
from .tensor import no_grad

OUTPUT_ROOT_ENV = "GCALAB_OUT"
DEFAULT_SEEDS = (0, 1, 2, 3, 4)
EVAL_CHUNK = 256


def default_output_root() -> str:
    return os.environ.get(OUTPUT_ROOT_ENV, "runs")


@dataclass
class TrainingParams:
    epochs: int = 50
    batch_size: int = 128
    lr: float = 1e-3
    negatives_per_pos: int = 1
    eval_negatives: int = 99
    patience: int = 10

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.negatives_per_pos < 1:
            raise ConfigError(f"negatives_per_pos must be >= 1, got {self.negatives_per_pos}")
        if self.eval_negatives < 1:
            raise ConfigError(f"eval_negatives must be >= 1, got {self.eval_negatives}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")


@dataclass
class RunSpec:
    """One experiment: a model family, a data source, a training recipe, seeds.

    ``model`` stays a plain mapping (without vocabulary sizes) until a dataset
    is loaded; vocabularies come from the data unless explicitly overridden.
    """

    model: dict
    data: SynthSpec | str
    training: TrainingParams = field(default_factory=TrainingParams)
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    output_dir: str = ""

    def __post_init__(self):
        if not isinstance(self.model, dict):
            raise ConfigError(f"model must be a mapping, got {self.model!r}")
        self.training = from_mapping(TrainingParams, self.training, "training")
        self.seeds = _integers(self.seeds, "seeds")
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be distinct, got {self.seeds}")
        if not self.output_dir:
            self.output_dir = default_output_root()

    @classmethod
    def from_dict(cls, payload: dict) -> "RunSpec":
        if "data" not in payload or "model" not in payload:
            raise ConfigError("run spec needs 'data' and 'model' sections")
        data = payload["data"]
        if isinstance(data, dict) and "path" in data:
            data = str(data["path"])
        elif not isinstance(data, str):
            data = from_mapping(SynthSpec, data, "data")
        return cls(
            model=payload["model"],
            data=data,
            training=payload.get("training", {}),
            seeds=payload.get("seeds", DEFAULT_SEEDS),
            output_dir=str(payload.get("output_dir", "")),
        )

    def to_dict(self) -> dict:
        data = (
            {"path": self.data}
            if isinstance(self.data, str)
            else dataclasses.asdict(self.data)
        )
        return {
            "model": _jsonable(self.model),
            "data": _jsonable(data),
            "training": dataclasses.asdict(self.training),
            "seeds": list(self.seeds),
            "output_dir": self.output_dir,
        }


@dataclass
class SweepSpec:
    """A Cartesian grid of config edits over a base run."""

    base: RunSpec
    axes: dict[str, list]

    def __post_init__(self):
        if not isinstance(self.axes, dict) or not self.axes:
            raise ConfigError(f"sweep needs a mapping of at least one axis, got {self.axes!r}")
        for path, values in self.axes.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ConfigError(f"axis {path!r} needs a non-empty value list")

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepSpec":
        if "axes" not in payload:
            raise ConfigError("sweep spec needs an 'axes' section")
        return cls(base=RunSpec.from_dict(payload), axes=payload["axes"])


@dataclass
class ScalingCurveSpec:
    """Plain baselines over a width grid versus one GCA variant at base width."""

    base: RunSpec
    gca_variant: GcaConfig
    width_grid: list[int]

    def __post_init__(self):
        self.gca_variant = from_mapping(GcaConfig, self.gca_variant, "gca_variant")
        self.width_grid = list(_integers(self.width_grid, "width_grid"))
        if not self.width_grid:
            raise ConfigError("width_grid must be non-empty")
        if any(b <= a for a, b in zip(self.width_grid, self.width_grid[1:])):
            raise ConfigError(f"width_grid must be strictly increasing, got {self.width_grid}")
        if not self.gca_variant.placements:
            raise ConfigError("gca_variant needs at least one placement")

    @classmethod
    def from_dict(cls, payload: dict) -> "ScalingCurveSpec":
        for key in ("gca_variant", "width_grid"):
            if key not in payload:
                raise ConfigError(f"scaling spec needs {key!r}")
        return cls(
            base=RunSpec.from_dict(payload),
            gca_variant=payload["gca_variant"],
            width_grid=payload["width_grid"],
        )


def _integers(values, name: str) -> tuple[int, ...]:
    try:
        return tuple(operator.index(v) for v in values)
    except TypeError:
        raise ConfigError(f"{name} must be a list of integers, got {values!r}") from None


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


# -- dataset and config resolution ----------------------------------------------


def load_dataset(spec: RunSpec) -> SplitDataset:
    """Parse or generate the run's data and split it; a file's item-id
    mapping is written under the output directory, never beside the file."""
    if isinstance(spec.data, SynthSpec):
        return split_leave_one_out(generate_synthetic(spec.data))
    log = load_log(spec.data)
    save_item_maps(log.item_maps, spec.output_dir)
    return split_leave_one_out(log)


def data_descriptor(spec: RunSpec) -> dict:
    """The data's identity: a synthetic spec, or a file's path and the
    sha256 of its bytes, so an edit in place changes every config id."""
    if isinstance(spec.data, SynthSpec):
        return {"kind": "synthetic", **dataclasses.asdict(spec.data)}
    try:
        digest = hashlib.sha256(Path(spec.data).read_bytes()).hexdigest()
    except OSError as exc:
        raise ConfigError(f"cannot read data file {spec.data}: {exc.strerror}") from exc
    return {"kind": "file", "path": str(spec.data), "sha256": digest}


def _data_key(data: dict) -> int:
    """Seed root for evaluation candidate draws, from a data descriptor. It
    is shared by every config on the same data, and for a file it depends on
    the bytes alone, so ranking lists are comparable across models and paths."""
    if data["kind"] == "synthetic":
        return data["seed"]
    return int(data["sha256"][:8], 16)


def resolve_model_config(spec: RunSpec, dataset: SplitDataset) -> ModelConfig:
    """The spec's model section as a ModelConfig, vocabularies from the data.

    ``combined_thread`` is derived from the wiring; the key is accepted only
    when it states the derived value."""
    kwargs = dict(spec.model)
    claimed = kwargs.pop("combined_thread", None)
    vocabularies = {"vocab_a": dataset.vocab_a, "vocab_b": dataset.vocab_b}
    for key, available in vocabularies.items():
        if kwargs.get(key) is None:
            kwargs[key] = available
    cfg = from_mapping(ModelConfig, kwargs, "model")
    for key, available in vocabularies.items():
        if getattr(cfg, key) < available:
            raise ConfigError(f"{key}={getattr(cfg, key)} smaller than dataset vocabulary {available}")
    if claimed is not None and claimed != cfg.combined_embedded:
        derived = str(cfg.combined_embedded).lower()
        raise ConfigError(
            f"combined_thread is derived from the wiring (adapters or kv_source=combined read it); "
            f"this model derives combined_thread={derived}, so drop the key or set it to {derived}"
        )
    return cfg


def config_id(cfg: ModelConfig, data: dict, training: TrainingParams) -> str:
    payload = {
        "model": dataclasses.asdict(cfg),
        "data": data,
        "training": dataclasses.asdict(training),
    }
    canonical = json.dumps(payload, sort_keys=True, default=list)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


# Evaluation candidate lists by stage, then domain.
Candidates = dict[str, dict[int, np.ndarray]]
# Evaluation inputs by (stage, max_len, include_combined, chunk start).
EvalInputs = dict[tuple[str, int, bool, int], ModelInputs]


@dataclass
class SharedData:
    """What the cells of one command share: each dataset and each
    evaluation-input cache, keyed by the canonical data descriptor, and each
    candidate-list cache, keyed by that descriptor plus ``eval_negatives``.
    A command makes one and drops it when it returns."""

    datasets: dict[str, SplitDataset] = field(default_factory=dict)
    candidates: dict[tuple[str, int], Candidates] = field(default_factory=dict)
    inputs: dict[str, EvalInputs] = field(default_factory=dict)


@dataclass
class ResolvedRun:
    """A run spec with its dataset, data descriptor, model config, config id,
    evaluation key and evaluation caches worked out once, for every seed of
    the run."""

    spec: RunSpec
    dataset: SplitDataset
    data: dict
    cfg: ModelConfig
    cid: str
    key: int
    candidates: Candidates
    inputs: EvalInputs


def _check_candidate_pool(dataset: SplitDataset, negatives: int) -> None:
    """Evaluation draws ``negatives`` items outside each user's history, so
    every user needs that many left in both domains."""
    for domain, name in ((DOMAIN_A, "A"), (DOMAIN_B, "B")):
        pool = dataset.vocab(domain) - max(len(seen[domain]) for seen in dataset.history)
        if negatives > pool:
            raise ConfigError(
                f"training.eval_negatives={negatives} exceeds the smallest candidate pool in "
                f"domain {name}: {pool} items lie outside some user's history"
            )


def resolve_run(spec: RunSpec, shared: SharedData | None = None) -> ResolvedRun:
    """Resolve ``spec``, loading its data only if ``shared`` lacks it."""
    if shared is None:
        shared = SharedData()
    data = data_descriptor(spec)
    source = json.dumps(data, sort_keys=True)
    dataset = shared.datasets.get(source)
    if dataset is None:
        dataset = shared.datasets[source] = load_dataset(spec)
    _check_candidate_pool(dataset, spec.training.eval_negatives)
    cfg = resolve_model_config(spec, dataset)
    return ResolvedRun(
        spec=spec,
        dataset=dataset,
        data=data,
        cfg=cfg,
        cid=config_id(cfg, data, spec.training),
        key=_data_key(data),
        candidates=shared.candidates.setdefault((source, spec.training.eval_negatives), {}),
        inputs=shared.inputs.setdefault(source, {}),
    )


# -- evaluation ---------------------------------------------------------------------


def _candidate_matrix(
    dataset: SplitDataset, domain: int, stage: str, negatives: int, key: int
) -> np.ndarray:
    """Per-user candidate lists: the stage positive at index 0, then sampled
    negatives excluding the user's full history. Drawn from a data-derived
    stream so every model ranks the same lists."""
    name = "a" if domain == DOMAIN_A else "b"
    rng = derive_rng(key, "eval", stage, name)
    users = np.arange(len(dataset))
    positives = stage_targets(dataset, users, domain, stage)
    rows = np.empty((len(dataset), negatives + 1), dtype=np.int64)
    rows[:, 0] = positives
    for index in range(len(dataset)):
        rows[index, 1:] = sample_negatives(dataset, index, domain, negatives, rng)
    return rows


def evaluate(
    model: DualDomainModel,
    dataset: SplitDataset,
    stage: str,
    params: TrainingParams,
    data_key: int,
    probes: dict[str, GcaProbe] | None = None,
    candidates: Candidates | None = None,
    inputs: EvalInputs | None = None,
) -> dict[str, float]:
    """Ranking metrics over all users at ``stage``, eval mode, chunked.

    ``candidates`` is a cache of candidate lists by stage for this data and
    ``eval_negatives``, and ``inputs`` one of input batches for this data:
    entries they lack are built and stored read-only, entries they hold are
    reused. Both are pure functions of the data and their keys, so the
    metrics do not depend on them.
    """
    lists = None if candidates is None else candidates.get(stage)
    if lists is None:
        lists = {
            domain: _candidate_matrix(dataset, domain, stage, params.eval_negatives, data_key)
            for domain in (DOMAIN_A, DOMAIN_B)
        }
        if candidates is not None:
            for rows in lists.values():
                rows.flags.writeable = False
            candidates[stage] = lists
    include_combined = model.combined_required()
    sums = {name: 0.0 for name in ("ndcg1_a", "ndcg1_b", "ndcg10_a", "ndcg10_b", "auc_a", "auc_b")}
    total = len(dataset)
    with no_grad():
        for start in range(0, total, EVAL_CHUNK):
            chunk = np.arange(start, min(start + EVAL_CHUNK, total))
            entry = (stage, model.cfg.max_len, include_combined, start)
            batches = None if inputs is None else inputs.get(entry)
            if batches is None:
                batches = build_inputs(dataset, chunk, stage, model.cfg.max_len, include_combined)
                if inputs is not None:
                    for batch in (batches.batch_a, batches.batch_b, batches.batch_combined):
                        if batch is not None:
                            batch.ids.flags.writeable = False
                            batch.mask.flags.writeable = False
                    inputs[entry] = batches
            repr_a, repr_b = model.forward(
                batches.batch_a, batches.batch_b, batches.batch_combined, probes=probes
            )
            for suffix, domain, repr_, mask in (
                ("a", DOMAIN_A, repr_a, batches.batch_a.mask),
                ("b", DOMAIN_B, repr_b, batches.batch_b.mask),
            ):
                scores = model.score_next_item(repr_, mask, lists[domain][chunk], suffix).data
                for name, values in (
                    (f"ndcg1_{suffix}", ndcg_at_k(scores, 0, 1)),
                    (f"ndcg10_{suffix}", ndcg_at_k(scores, 0, 10)),
                    (f"auc_{suffix}", auc(scores, 0)),
                ):
                    # Row by row, in user order: a pairwise np.sum would
                    # change the low bits of the mean.
                    for value in values.tolist():
                        sums[name] += value
    return {name: value / total for name, value in sums.items()}


# -- single run -------------------------------------------------------------------------


def run_train(
    spec: RunSpec,
    seed: int,
    checkpoint_path: str | Path | None = None,
    resolved: ResolvedRun | None = None,
) -> MetricsRecord:
    """Train one seed with early stopping on mean validation NDCG@10.

    Epoch 0 (the untrained model) participates in best-epoch selection, so a
    zero-epoch budget degenerates to evaluating the fresh model. Test metrics
    and orthogonality probes are taken once, from the restored best state.
    ``resolved``, if given, is ``resolve_run(spec)`` made by the caller.
    """
    run = resolved or resolve_run(spec)
    dataset, cfg, params, key = run.dataset, run.cfg, spec.training, run.key

    model = build(cfg, seed)
    optimizer = Adam(model.store.trainable_parameters(), lr=params.lr)
    shuffle_rng = derive_rng(seed, "train", "shuffle")
    negative_rng = derive_rng(seed, "train", "negatives")
    dropout_rng = derive_rng(seed, "train", "dropout")
    include_combined = model.combined_required()
    users = np.arange(len(dataset))

    def validation_score() -> float:
        scores = evaluate(
            model, dataset, "val", params, key, candidates=run.candidates, inputs=run.inputs
        )
        return (scores["ndcg10_a"] + scores["ndcg10_b"]) / 2.0

    best_score = validation_score()
    best_state = model.store.state()
    best_epoch = 0
    for epoch in range(1, params.epochs + 1):
        order = shuffle_rng.permutation(users)
        for start in range(0, len(order), params.batch_size):
            batch_users = order[start : start + params.batch_size]
            inputs = build_inputs(dataset, batch_users, "train", cfg.max_len, include_combined)
            positives_a = stage_targets(dataset, batch_users, DOMAIN_A, "train")
            positives_b = stage_targets(dataset, batch_users, DOMAIN_B, "train")
            optimizer.zero_grad()
            loss = model.training_loss(
                inputs.batch_a,
                inputs.batch_b,
                positives_a,
                positives_b,
                params.negatives_per_pos,
                negative_rng,
                batch_combined=inputs.batch_combined,
                train_rng=dropout_rng if cfg.dropout_p > 0 else None,
            )
            loss.backward()
            optimizer.step()
        score = validation_score()
        if score > best_score:
            best_score = score
            best_state = model.store.state()
            best_epoch = epoch
        elif epoch - best_epoch >= params.patience:
            break

    model.store.load_state(best_state)
    if checkpoint_path is not None:
        Path(checkpoint_path).parent.mkdir(parents=True, exist_ok=True)
        save_checkpoint(model.store, str(checkpoint_path))

    probes = {"a": GcaProbe(), "b": GcaProbe()}
    test_scores = evaluate(
        model, dataset, "test", params, key, probes=probes, candidates=run.candidates,
        inputs=run.inputs,
    )
    return MetricsRecord(
        config_id=run.cid,
        seed=seed,
        cos_xxprime_a=probes["a"].cos_xxprime,
        cos_xxprime_b=probes["b"].cos_xxprime,
        cos_xy_a=probes["a"].cos_xy,
        cos_xy_b=probes["b"].cos_xy,
        param_count=model.param_count,
        epoch_of_best=best_epoch,
        **test_scores,
    )


# -- persistence ---------------------------------------------------------------------------


def _write_json_atomic(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    tmp.write_text(json.dumps(payload, indent=2, default=list) + "\n")
    os.replace(tmp, path)


def _write_csv(path: Path, header, rows) -> None:
    """Write comma-joined lines, unquoted: None as "", a float as its repr,
    anything else as str."""

    def text(value) -> str:
        if value is None:
            return ""
        return repr(value) if isinstance(value, float) else str(value)

    lines = [",".join(header)] + [",".join(text(value) for value in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def cell_path(output_dir: str | Path, cid: str, seed: int) -> Path:
    return Path(output_dir) / "cells" / cid / f"seed{seed}.json"


def run_cell(
    spec: RunSpec, seed: int, resume: bool = False, resolved: ResolvedRun | None = None
) -> MetricsRecord | None:
    """Run one config x seed cell, persisting success or failure.

    With ``resume`` a completed cell is loaded instead of re-run; failed
    cells stay skipped until their file is removed. Any exception is recorded
    as ``Type: message`` with its traceback and swallowed so a sweep
    continues past it; KeyboardInterrupt is not an Exception and still stops
    the command. ``resolved``, if given, is ``resolve_run(spec)`` made by the
    caller.
    """
    run = resolved or resolve_run(spec)
    cid = run.cid
    path = cell_path(spec.output_dir, cid, seed)
    if resume and path.exists():
        payload = json.loads(path.read_text())
        if payload.get("failed"):
            return None
        return MetricsRecord.from_dict(payload["record"])

    described = {
        "model": dataclasses.asdict(run.cfg),
        "data": run.data,
        "training": dataclasses.asdict(spec.training),
        "seed": seed,
        "config_id": cid,
    }
    checkpoint = Path(spec.output_dir) / "checkpoints" / f"{cid}-seed{seed}.ckpt"
    started = time.monotonic()
    record = None
    try:
        record = run_train(spec, seed, checkpoint_path=checkpoint, resolved=run)
        outcome = {"record": record.to_dict()}
    except Exception as exc:
        outcome = {"error": f"{type(exc).__name__}: {exc}", "traceback": traceback.format_exc()}
    _write_json_atomic(
        path,
        {
            "failed": record is None,
            **outcome,
            "resolved": _jsonable(described),
            "runtime_s": time.monotonic() - started,
        },
    )
    return record


def run_cells(runs: list[ResolvedRun], resume: bool = False) -> list[list[MetricsRecord | None]]:
    """Run each run's seeds in order, then rebuild each output directory's
    roll-ups once. Returns the records grouped by run, None for a failed cell."""
    records = [
        [run_cell(run.spec, seed, resume=resume, resolved=run) for seed in run.spec.seeds]
        for run in runs
    ]
    for output_dir in dict.fromkeys(run.spec.output_dir for run in runs):
        rebuild_rollup(output_dir)
    return records


def load_records(output_dir: str | Path) -> list[MetricsRecord]:
    """All successful cell records under ``output_dir``, sorted for stability."""
    records = []
    root = Path(output_dir) / "cells"
    for path in sorted(root.glob("*/seed*.json")):
        payload = json.loads(path.read_text())
        if not payload.get("failed"):
            records.append(MetricsRecord.from_dict(payload["record"]))
    return records


def aggregate_by_config(records: list[MetricsRecord]) -> list[AggregateSummary]:
    """Mean and sd over seeds for each config, sorted by config id."""
    by_config: dict[str, list[MetricsRecord]] = {}
    for record in records:
        by_config.setdefault(record.config_id, []).append(record)
    return sorted((aggregate_over_seeds(g) for g in by_config.values()), key=lambda s: s.config_id)


def rebuild_rollup(output_dir: str | Path) -> list[MetricsRecord]:
    """Regenerate results.csv and aggregates.csv from the cell files."""
    records = load_records(output_dir)
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "results.csv", RECORD_COLUMNS, [record.to_dict().values() for record in records])

    aggregates = aggregate_by_config(records)
    best_id = None
    if aggregates:
        best_id = max(
            aggregates, key=lambda s: (s.mean["ndcg10_a"] + s.mean["ndcg10_b"]) / 2.0
        ).config_id
    tracked = METRIC_FIELDS + ("param_count", "epoch_of_best")
    header = ["config_id", "count"]
    header += [f"mean_{name}" for name in tracked]
    header += [f"sd_{name}" for name in tracked]
    header.append("is_best")
    rows = [
        [s.config_id, s.count, *(s.mean[n] for n in tracked), *(s.sd[n] for n in tracked),
         int(s.config_id == best_id)]
        for s in aggregates
    ]
    _write_csv(out / "aggregates.csv", header, rows)
    return records


# -- sweeps -----------------------------------------------------------------------------------


def _set_path(tree: dict, parts: list[str], value) -> None:
    node = tree
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"axis path {'.'.join(parts)} crosses non-mapping node {part!r}")
    node[parts[-1]] = value


def apply_axis(spec: RunSpec, path: str, value) -> RunSpec:
    """Return a copy of ``spec`` with one config path overridden.

    Paths starting with model/training/data address those sections; anything
    else (e.g. ``gca.placements``) addresses the model section directly.
    """
    parts = path.split(".")
    if parts[0] in ("training", "data"):
        section, current = parts[0], getattr(spec, parts[0])
        if isinstance(current, str):
            raise ConfigError("data axes require a synthetic data source")
        if len(parts) != 2:
            raise ConfigError(f"{section} axis must be {section}.<field>, got {path!r}")
        edited = {**dataclasses.asdict(current), parts[1]: value}
        return replace(spec, **{section: from_mapping(type(current), edited, section)})
    if parts[0] == "model":
        parts = parts[1:]
        if not parts:
            raise ConfigError("model axis needs a field path")
    model = json.loads(json.dumps(_jsonable(spec.model)))
    _set_path(model, parts, value)
    return replace(spec, model=model)


def enumerate_sweep(spec: SweepSpec) -> list[tuple[dict, RunSpec]]:
    """The grid as (axis assignment, concrete run spec) pairs, in document order."""
    paths = list(spec.axes)
    combos = itertools.product(*(spec.axes[path] for path in paths))
    cells = []
    for combo in combos:
        assignment = dict(zip(paths, combo))
        run = spec.base
        for path, value in assignment.items():
            run = apply_axis(run, path, value)
        cells.append((assignment, run))
    return cells


def run_sweep(spec: SweepSpec, resume: bool = False) -> list[MetricsRecord]:
    """Resolve every grid point, then run the grid x seeds; failures are
    isolated, roll-ups rebuilt at the end."""
    shared = SharedData()
    cells = [(assignment, resolve_run(run, shared)) for assignment, run in enumerate_sweep(spec)]
    _write_json_atomic(
        Path(spec.base.output_dir) / "sweep_manifest.json",
        {
            "axes": _jsonable(spec.axes),
            "cells": [{"axes": _jsonable(a), "config_id": run.cid} for a, run in cells],
        },
    )
    grouped = run_cells([run for _, run in cells], resume)
    return [record for group in grouped for record in group if record is not None]


# -- parameter matching and scaling curves ----------------------------------------------------


def match_parameters(
    baseline: ModelConfig, target_params: int, tolerance: float = 0.02
) -> tuple[ModelConfig, int]:
    """Search the hidden width (in steps of the head count) for a parameter
    count within ``tolerance`` of the target; counts grow monotonically in d."""
    if tolerance <= 0:
        raise ConfigError(f"tolerance must be positive, got {tolerance}")
    if target_params < 1:
        raise ConfigError(f"target_params must be positive, got {target_params}")
    step = baseline.heads
    if baseline.gca.placements:
        step = math.lcm(step, baseline.gca.heads)
    floor = max(2, (baseline.adapter_rank or 0) + 1)
    d_min = step * ((floor + step - 1) // step)

    def count_at(d: int) -> int:
        return count_parameters(replace(baseline, d=d))

    def width(index: int) -> int:
        return d_min + index * step

    # Bisect over the width lattice for the first count >= target.
    hi = 1
    while count_at(width(hi)) < target_params and width(hi) < (1 << 16):
        hi *= 2
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        if count_at(width(mid)) < target_params:
            lo = mid + 1
        else:
            hi = mid
    candidates = {width(lo)}
    if lo > 0:
        candidates.add(width(lo - 1))
    best = min(sorted(candidates), key=lambda d: (abs(count_at(d) - target_params), d))
    achieved = count_at(best)
    error = abs(achieved - target_params) / target_params
    if error > tolerance:
        raise InfeasibleMatchError(
            f"no width within {tolerance:.1%} of {target_params}; nearest is "
            f"{achieved} at d={best} (off by {error:.2%})"
        )
    return replace(baseline, d=best), achieved


@dataclass
class ScalingPoint:
    kind: str
    d: int
    config_id: str
    param_count: int
    mean_ndcg10_a: float
    mean_ndcg10_b: float

    @property
    def mean_ndcg10(self) -> float:
        return (self.mean_ndcg10_a + self.mean_ndcg10_b) / 2.0


@dataclass
class ScalingReport:
    points: list[ScalingPoint]
    target_params: int
    matched_width: int
    achieved_params: int
    relative_error: float

    def to_dict(self) -> dict:
        return {
            "points": [
                {**dataclasses.asdict(p), "mean_ndcg10": p.mean_ndcg10} for p in self.points
            ],
            "target_params": self.target_params,
            "matched_width": self.matched_width,
            "achieved_params": self.achieved_params,
            "relative_error": self.relative_error,
        }


def run_scaling_curve(spec: ScalingCurveSpec, resume: bool = False) -> ScalingReport:
    """Accuracy-versus-parameters protocol: plain baselines across widths
    (always including the parameter-matched one) against the GCA variant.

    A point whose seeds all failed is left out of the roll-up, which is
    written for the points that ran; then ContractError names the failed
    points."""
    base = spec.base
    shared = SharedData()

    def resolve_for(model_kwargs: dict) -> ResolvedRun:
        return resolve_run(replace(base, model=model_kwargs), shared)

    baseline_kwargs = dict(base.model)
    baseline_kwargs["gca"] = {"placements": ()}
    gca_kwargs = dict(base.model)
    gca_kwargs["gca"] = dataclasses.asdict(spec.gca_variant)

    gca_run = resolve_for(gca_kwargs)
    target = count_parameters(gca_run.cfg)
    matched_cfg, achieved = match_parameters(resolve_for(baseline_kwargs).cfg, target)
    relative_error = abs(achieved - target) / target

    widths = sorted(set(spec.width_grid) | {matched_cfg.d})
    runs = [resolve_for({**baseline_kwargs, "d": width}) for width in widths] + [gca_run]

    points, failed = [], []
    for run, records in zip(runs, run_cells(runs, resume)):
        kind = "gca" if run is gca_run else "baseline"
        group = [record for record in records if record is not None]
        if not group:
            failed.append(f"{kind} d={run.cfg.d}")
            continue
        summary = aggregate_over_seeds(group)
        points.append(
            ScalingPoint(
                kind=kind,
                d=run.cfg.d,
                config_id=run.cid,
                param_count=int(summary.mean["param_count"]),
                mean_ndcg10_a=summary.mean["ndcg10_a"],
                mean_ndcg10_b=summary.mean["ndcg10_b"],
            )
        )

    report = ScalingReport(
        points=points,
        target_params=target,
        matched_width=matched_cfg.d,
        achieved_params=achieved,
        relative_error=relative_error,
    )
    out = Path(base.output_dir)
    _write_json_atomic(out / "scaling_report.json", report.to_dict())
    _write_csv(
        out / "scaling.csv",
        [field.name for field in dataclasses.fields(ScalingPoint)] + ["mean_ndcg10"],
        [(*dataclasses.astuple(p), p.mean_ndcg10) for p in report.points],
    )
    series = {
        kind: [(float(p.param_count), p.mean_ndcg10) for p in report.points if p.kind == kind]
        for kind in ("baseline", "gca")
    }
    if points:
        write_svg(
            out / "scaling.svg",
            scatter_svg(series, "parameters", "mean test NDCG@10", "Accuracy versus parameters"),
        )
    if failed:
        raise ContractError(f"every seed failed for scaling point(s): {', '.join(failed)}")
    return report


# -- analysis -----------------------------------------------------------------------------------


CORRELATION_PAIRS = (
    ("cos_xxprime", "ndcg10"),
    ("ndcg1", "auc"),
    ("ndcg10", "auc"),
)


@dataclass
class CorrelationResult:
    domain: str
    x_field: str
    y_field: str
    n: int
    r: float | None
    note: str = ""


@dataclass
class AnalysisReport:
    correlations: list[CorrelationResult]
    summaries: dict[str, dict[str, float]]
    aggregates: list[AggregateSummary]
    record_count: int
    output_dir: str

    def correlation(self, domain: str, x_field: str, y_field: str) -> CorrelationResult:
        for result in self.correlations:
            if (result.domain, result.x_field, result.y_field) == (domain, x_field, y_field):
                return result
        raise KeyError((domain, x_field, y_field))


def analyze(output_dir: str | Path) -> AnalysisReport:
    """Correlations and cosine distributions over all recorded cells.

    Writes analysis.csv (correlations), cosine_summary.csv (five-number
    summaries), one scatter SVG per domain for the orthogonality/accuracy
    relation, and a box plot of the cosine channels.
    """
    records = load_records(output_dir)
    if len(records) < 3:
        raise ContractError(f"analysis needs at least 3 records, found {len(records)}")
    out = Path(output_dir)

    correlations = []
    for domain in ("a", "b"):
        for x_field, y_field in CORRELATION_PAIRS:
            xs = [getattr(r, f"{x_field}_{domain}") for r in records]
            ys = [getattr(r, f"{y_field}_{domain}") for r in records]
            try:
                result = CorrelationResult(
                    domain, x_field, y_field, len(records), pearson_r(xs, ys)
                )
            except UndefinedCorrelationError as exc:
                result = CorrelationResult(
                    domain, x_field, y_field, len(records), None, note=str(exc)
                )
            correlations.append(result)

    summaries = {}
    for channel in ("cos_xxprime", "cos_xy"):
        for domain in ("a", "b"):
            name = f"{channel}_{domain}"
            summaries[name] = five_number_summary([getattr(r, name) for r in records])

    _write_csv(
        out / "analysis.csv", ("domain", "x", "y", "n", "r", "note"), map(dataclasses.astuple, correlations)
    )
    quantiles = ("min", "q1", "median", "q3", "max")
    _write_csv(
        out / "cosine_summary.csv",
        ("field",) + quantiles,
        ([name] + [summary[q] for q in quantiles] for name, summary in summaries.items()),
    )

    for domain in ("a", "b"):
        points = [
            (getattr(r, f"cos_xxprime_{domain}"), getattr(r, f"ndcg10_{domain}"))
            for r in records
        ]
        write_svg(
            out / f"orthogonality_{domain}.svg",
            scatter_svg(
                {f"domain {domain.upper()}": points},
                "|cos(query, crossed)|",
                "test NDCG@10",
                f"Orthogonality versus accuracy, domain {domain.upper()}",
            ),
        )
    write_svg(
        out / "cosine_box.svg",
        box_svg(summaries, "|cosine|", "Cosine channels across runs"),
    )

    return AnalysisReport(
        correlations=correlations,
        summaries=summaries,
        aggregates=aggregate_by_config(records),
        record_count=len(records),
        output_dir=str(output_dir),
    )


# -- report ---------------------------------------------------------------------------------------


def write_report(output_dir: str | Path) -> Path:
    """Render report.md: aggregates, correlations, plot links, resolved configs."""
    report = analyze(output_dir)
    out = Path(output_dir)
    resolved: dict[str, dict] = {}
    for path in sorted((out / "cells").glob("*/seed*.json")):
        payload = json.loads(path.read_text())
        info = payload.get("resolved", {})
        cid = info.get("config_id")
        if not cid:
            continue
        entry = resolved.setdefault(cid, {**info, "seeds": []})
        entry["seeds"].append(info.get("seed"))
        entry.pop("seed", None)

    lines = ["# Experiment report", ""]
    lines.append(f"Records: {report.record_count} across {len(report.aggregates)} configs.")
    lines.append("")
    lines.append("## Per-config means over seeds")
    lines.append("")
    lines.append("| config | seeds | ndcg10_a | ndcg10_b | auc_a | auc_b | cos_xxprime_a | params |")
    lines.append("|---|---|---|---|---|---|---|---|")
    for agg in report.aggregates:
        lines.append(
            f"| {agg.config_id} | {agg.count} | {agg.mean['ndcg10_a']:.4f} "
            f"| {agg.mean['ndcg10_b']:.4f} | {agg.mean['auc_a']:.4f} | {agg.mean['auc_b']:.4f} "
            f"| {agg.mean['cos_xxprime_a']:.4f} | {int(agg.mean['param_count'])} |"
        )
    lines.append("")
    lines.append("## Correlations across runs")
    lines.append("")
    lines.append("| domain | pair | n | r |")
    lines.append("|---|---|---|---|")
    for c in report.correlations:
        value = "omitted (zero variance)" if c.r is None else f"{c.r:.4f}"
        lines.append(f"| {c.domain} | {c.x_field} vs {c.y_field} | {c.n} | {value} |")
    lines.append("")
    lines.append("## Cosine channel distributions")
    lines.append("")
    lines.append("| field | min | q1 | median | q3 | max |")
    lines.append("|---|---|---|---|---|---|")
    for name, s in report.summaries.items():
        lines.append(
            f"| {name} | {s['min']:.4f} | {s['q1']:.4f} | {s['median']:.4f} "
            f"| {s['q3']:.4f} | {s['max']:.4f} |"
        )
    lines.append("")
    lines.append("## Artifacts")
    lines.append("")
    for artifact in (
        "results.csv",
        "aggregates.csv",
        "analysis.csv",
        "cosine_summary.csv",
        "orthogonality_a.svg",
        "orthogonality_b.svg",
        "cosine_box.svg",
    ):
        if (out / artifact).exists():
            lines.append(f"- {artifact}")
    lines.append("")
    lines.append("## Resolved configurations")
    lines.append("")
    for cid, info in resolved.items():
        lines.append(f"### {cid}")
        lines.append("")
        lines.append("```json")
        lines.append(json.dumps(info, indent=2, default=list))
        lines.append("```")
        lines.append("")
    path = out / "report.md"
    path.write_text("\n".join(lines))
    return path
