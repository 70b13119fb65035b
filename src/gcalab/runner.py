"""Experiment orchestration: single runs, sweeps, scaling curves, analysis.

The files each command writes under a run's output directory are listed in
the README's "Outputs" table. A cell file embeds the fully resolved
model/data/training configuration, so any recorded run can be reproduced bit
for bit from the file alone.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
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
    DOMAIN_NAMES,
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
    CellFileError,
    ConfigError,
    ContractError,
    InfeasibleMatchError,
    UndefinedCorrelationError,
    check_types,
    from_mapping,
)
from .files import write_atomic
from .gca import GcaConfig, GcaProbe
from .metrics import (
    AGGREGATED_FIELDS,
    QUANTILES,
    RECORD_COLUMNS,
    AggregateSummary,
    MetricsRecord,
    aggregate_over_seeds,
    auc,
    five_number_summary,
    ndcg_at_k,
    pearson_r,
    selection_score,
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
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
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
    ``data`` is a SynthSpec or its mapping, or a path or ``{"path": ...}``.
    """

    model: dict
    data: SynthSpec | str
    training: TrainingParams = field(default_factory=TrainingParams)
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    output_dir: str = ""

    def __post_init__(self):
        if not isinstance(self.model, dict):
            raise ConfigError(f"model must be a mapping, got {self.model!r}")
        if isinstance(self.data, dict) and "path" in self.data:
            if len(self.data) > 1 or not isinstance(self.data["path"], str):
                raise ConfigError(f"a data file takes one string key, 'path'; other data keys "
                                  f"need a synthetic source: {self.data!r}")
            self.data = self.data["path"]
        if not isinstance(self.data, str):
            self.data = from_mapping(SynthSpec, self.data, "data")
        self.training = from_mapping(TrainingParams, self.training, "training")
        check_types(RunSpec, {"seeds": self.seeds}, "run spec")
        self.seeds = tuple(self.seeds)
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be distinct, got {self.seeds}")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be >= 0, got {self.seeds}")
        if not self.output_dir:
            self.output_dir = default_output_root()

    @classmethod
    def from_dict(cls, payload: dict) -> "RunSpec":
        return from_mapping(cls, payload, "run spec")

    def to_dict(self) -> dict:
        """A fresh tree: editing it leaves this spec as it is."""
        data = (
            {"path": self.data}
            if isinstance(self.data, str)
            else dataclasses.asdict(self.data)
        )
        return {
            "model": copy.deepcopy(self.model),
            "data": data,
            "training": dataclasses.asdict(self.training),
            "seeds": list(self.seeds),
            "output_dir": self.output_dir,
        }


def _with_base(cls, payload: dict, section: str):
    """``cls`` from a config file: the keys that name ``cls``'s own fields go
    to it, and every other key goes to its ``base`` run spec."""
    own = {f.name for f in dataclasses.fields(cls)} - {"base"}
    split = {key: value for key, value in payload.items() if key in own}
    split["base"] = {key: value for key, value in payload.items() if key not in own}
    return from_mapping(cls, split, section)


@dataclass
class SweepSpec:
    """A Cartesian grid of config edits over a base run."""

    base: RunSpec
    axes: dict[str, list]

    def __post_init__(self):
        self.base = from_mapping(RunSpec, self.base, "run spec")
        if not isinstance(self.axes, dict) or not self.axes:
            raise ConfigError(f"sweep needs a mapping of at least one axis, got {self.axes!r}")
        for path, values in self.axes.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ConfigError(f"axis {path!r} needs a non-empty value list")

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepSpec":
        return _with_base(cls, payload, "sweep spec")


@dataclass
class ScalingCurveSpec:
    """Plain baselines over a width grid versus one GCA variant at base width."""

    base: RunSpec
    gca_variant: GcaConfig
    width_grid: tuple[int, ...]

    def __post_init__(self):
        self.base = from_mapping(RunSpec, self.base, "run spec")
        self.gca_variant = from_mapping(GcaConfig, self.gca_variant, "gca_variant")
        self.width_grid = tuple(self.width_grid)
        if not self.width_grid:
            raise ConfigError("width_grid must be non-empty")
        if any(b <= a for a, b in zip(self.width_grid, self.width_grid[1:])):
            raise ConfigError(f"width_grid must be strictly increasing, got {self.width_grid}")
        if not self.gca_variant.placements:
            raise ConfigError("gca_variant needs at least one placement")

    @classmethod
    def from_dict(cls, payload: dict) -> "ScalingCurveSpec":
        return _with_base(cls, payload, "scaling spec")


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


def config_identity(cfg: ModelConfig, data: dict, training: TrainingParams) -> dict:
    """What names a config: hashed into its id and written into each of its
    cell files' ``resolved`` block."""
    return {"model": dataclasses.asdict(cfg), "data": data, "training": dataclasses.asdict(training)}


def config_id(cfg: ModelConfig, data: dict, training: TrainingParams) -> str:
    canonical = json.dumps(config_identity(cfg, data, training), sort_keys=True, default=list)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


class DataSource:
    """One dataset, named by its canonical data descriptor, with what every
    run on it evaluates against: the candidate lists and the evaluation input
    batches. Each is built on first use, stored read-only and handed out from
    then on. Both are pure functions of the data and their keys, so every
    model on this data ranks the same lists, whichever run built them. A
    command keeps one source per descriptor and drops them when it returns."""

    def __init__(self, descriptor: dict, dataset: SplitDataset):
        self.descriptor = descriptor
        self.dataset = dataset
        # Evaluation draws negatives outside each user's history, so a
        # domain's pool is its vocabulary less the longest distinct history.
        self.pools = {
            name: dataset.vocab(domain) - max(len(set(u.sequence(domain).tolist())) for u in dataset.users)
            for domain, name in DOMAIN_NAMES.items()
        }
        # The seed root of the candidate draws: for a file it depends on the
        # bytes alone, so ranking lists are comparable across paths too.
        synthetic = descriptor["kind"] == "synthetic"
        self._draw_key = descriptor["seed"] if synthetic else int(descriptor["sha256"][:8], 16)
        self._candidates: dict[tuple[str, int], dict[int, np.ndarray]] = {}
        self._inputs: dict[tuple[str, int, bool], tuple[ModelInputs, ...]] = {}

    def check_eval_negatives(self, negatives: int) -> None:
        """Every user needs ``negatives`` items left outside their history
        in both domains."""
        for name, pool in self.pools.items():
            if negatives > pool:
                raise ConfigError(
                    f"training.eval_negatives={negatives} exceeds the smallest candidate pool in "
                    f"domain {name.upper()}: {pool} items lie outside some user's history"
                )

    def candidates(self, stage: str, negatives: int) -> dict[int, np.ndarray]:
        """Per-user candidate lists by domain: the stage positive at index
        0, then ``negatives`` items drawn outside the user's full history
        from a stream seeded by the data alone."""
        lists = self._candidates.get((stage, negatives))
        if lists is None:
            dataset = self.dataset
            lists = {}
            for domain, name in DOMAIN_NAMES.items():
                rng = derive_rng(self._draw_key, "eval", stage, name)
                rows = np.empty((len(dataset), negatives + 1), dtype=np.int64)
                rows[:, 0] = stage_targets(dataset, np.arange(len(dataset)), domain, stage)
                for index in range(len(dataset)):
                    rows[index, 1:] = sample_negatives(dataset, index, domain, negatives, rng)
                rows.flags.writeable = False
                lists[domain] = rows
            self._candidates[(stage, negatives)] = lists
        return lists

    def inputs(self, stage: str, max_len: int, combined: bool) -> tuple[ModelInputs, ...]:
        """The evaluation input batches of ``stage``, one per EVAL_CHUNK
        users in user order."""
        chunks = self._inputs.get((stage, max_len, combined))
        if chunks is None:
            total = len(self.dataset)
            chunks = tuple(
                build_inputs(
                    self.dataset, np.arange(start, min(start + EVAL_CHUNK, total)), stage, max_len, combined
                )
                for start in range(0, total, EVAL_CHUNK)
            )
            for batches in chunks:
                for batch in (batches.batch_a, batches.batch_b, batches.batch_combined):
                    if batch is not None:
                        batch.ids.flags.writeable = False
                        batch.mask.flags.writeable = False
            self._inputs[(stage, max_len, combined)] = chunks
        return chunks


@dataclass
class ResolvedRun:
    """A run spec with its data source, model config and config id worked
    out once, for every seed of the run."""

    spec: RunSpec
    source: DataSource
    cfg: ModelConfig
    cid: str

    @property
    def model_key(self) -> str:
        """The config id of the model as built: runs whose configs differ
        only in fields the model never reads train the same model."""
        built = self.cfg.as_built()
        if built == self.cfg:
            return self.cid
        return config_id(built, self.source.descriptor, self.spec.training)


def resolve_run(spec: RunSpec | ResolvedRun, shared: dict[str, DataSource] | None = None) -> ResolvedRun:
    """Resolve ``spec`` against ``shared``'s source for its data, keyed by
    the canonical descriptor; the data is loaded, and its source added, only
    if ``shared`` lacks it. A ResolvedRun passes through unchanged."""
    if isinstance(spec, ResolvedRun):
        return spec
    if shared is None:
        shared = {}
    descriptor = data_descriptor(spec)
    name = json.dumps(descriptor, sort_keys=True)
    if name not in shared:
        shared[name] = DataSource(descriptor, load_dataset(spec))
    source = shared[name]
    source.check_eval_negatives(spec.training.eval_negatives)
    cfg = resolve_model_config(spec, source.dataset)
    return ResolvedRun(spec=spec, source=source, cfg=cfg, cid=config_id(cfg, descriptor, spec.training))


# -- evaluation ---------------------------------------------------------------------


def evaluate(
    model: DualDomainModel,
    run: ResolvedRun,
    stage: str,
    probes: dict[str, GcaProbe] | None = None,
) -> dict[str, float]:
    """Ranking metrics over all users at ``stage``, eval mode, chunked.

    Candidate lists and input batches come from ``run.source``, which builds
    what it lacks and reuses what it holds, so the metrics do not depend on
    which cell filled it.
    """
    source = run.source
    lists = source.candidates(stage, run.spec.training.eval_negatives)
    chunks = source.inputs(stage, model.cfg.max_len, model.cfg.combined_embedded)
    sums = {name: 0.0 for name in ("ndcg1_a", "ndcg1_b", "ndcg10_a", "ndcg10_b", "auc_a", "auc_b")}
    start = 0
    with no_grad():
        for batches in chunks:
            rows = slice(start, start + batches.batch_a.batch_size)
            start = rows.stop
            hidden = model.forward(batches.batch_a, batches.batch_b, batches.batch_combined, probes=probes)
            masks = (batches.batch_a.mask, batches.batch_b.mask)
            for (domain, suffix), repr_, mask in zip(DOMAIN_NAMES.items(), hidden, masks):
                scores = model.score_next_item(repr_, mask, lists[domain][rows], suffix).data
                for name, values in (
                    (f"ndcg1_{suffix}", ndcg_at_k(scores, 0, 1)),
                    (f"ndcg10_{suffix}", ndcg_at_k(scores, 0, 10)),
                    (f"auc_{suffix}", auc(scores, 0)),
                ):
                    # Row by row, in user order: a pairwise np.sum would
                    # change the low bits of the mean.
                    for value in values.tolist():
                        sums[name] += value
    return {name: value / len(source.dataset) for name, value in sums.items()}


# -- single run -------------------------------------------------------------------------


def run_train(
    run: RunSpec | ResolvedRun, seed: int, checkpoint_path: str | Path | None = None
) -> MetricsRecord:
    """Train one seed of ``run`` with early stopping on mean validation NDCG@10.

    Epoch 0 (the untrained model) participates in best-epoch selection, so a
    zero-epoch budget degenerates to evaluating the fresh model. Test metrics
    and orthogonality probes are taken once, from the restored best state.
    """
    run = resolve_run(run)
    dataset, cfg, params = run.source.dataset, run.cfg, run.spec.training

    model = build(cfg, seed)
    optimizer = Adam(model.store.trainable_parameters(), lr=params.lr)
    shuffle_rng = derive_rng(seed, "train", "shuffle")
    negative_rng = derive_rng(seed, "train", "negatives")
    dropout_rng = derive_rng(seed, "train", "dropout")
    include_combined = cfg.combined_embedded
    users = np.arange(len(dataset))

    def validation_score() -> float:
        return selection_score(evaluate(model, run, "val"))

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
            # Backward consumes the step's autodiff graph, freeing it before
            # the next step's forward and before a validation pass.
            model.training_loss(
                inputs.batch_a,
                inputs.batch_b,
                positives_a,
                positives_b,
                params.negatives_per_pos,
                negative_rng,
                batch_combined=inputs.batch_combined,
                train_rng=dropout_rng if cfg.dropout_p > 0 else None,
            ).backward()
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
        save_checkpoint(model.store, str(checkpoint_path))

    probes = {"a": GcaProbe(), "b": GcaProbe()}
    test_scores = evaluate(model, run, "test", probes)
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


def _write_json(path: Path, payload: dict) -> None:
    write_atomic(path, json.dumps(payload, indent=2, default=list) + "\n")


def _write_csv(path: Path, header, rows) -> None:
    """Write rows through ``csv.writer``, which quotes a field only when it
    holds a comma, quote or newline: None as "", a float as its repr,
    anything else as str."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    write_atomic(path, buffer.getvalue())


def cell_path(output_dir: str | Path, cid: str, seed: int) -> Path:
    return Path(output_dir) / "cells" / cid / f"seed{seed}.json"


def _read_cell(path: Path) -> tuple[MetricsRecord | None, dict]:
    """The cell file at ``path``: its record, None for a failed cell, and
    its resolved configuration. A file that is not valid JSON, lacks a
    cell's fields or holds a record that fails MetricsRecord's checks
    raises CellFileError naming it."""
    try:
        payload = json.loads(path.read_text())
        resolved = payload["resolved"]
        if not isinstance(resolved, dict) or not {"config_id", "seed"} <= resolved.keys():
            raise ValueError(f"resolved lacks config_id or seed: {resolved!r}")
        record = None if payload["failed"] else MetricsRecord.from_dict(payload["record"])
        if record is not None and not isinstance(resolved["model"]["gca"]["placements"], list):
            raise ValueError(f"resolved model lacks a placement list: {resolved['model']!r}")
    except (ValueError, TypeError, KeyError, ContractError) as exc:
        raise CellFileError(f"{path} is not a readable cell file ({type(exc).__name__}: {exc})") from exc
    return record, resolved


def _read_cells(output_dir: str | Path) -> list[tuple[MetricsRecord | None, dict]]:
    """Every cell file under ``output_dir`` through ``_read_cell``, in path order."""
    return [_read_cell(path) for path in sorted((Path(output_dir) / "cells").glob("*/seed*.json"))]


Trained = dict[tuple[str, int], tuple[MetricsRecord, Path]]


def run_cell(
    run: RunSpec | ResolvedRun, seed: int, resume: bool = False, trained: Trained | None = None
) -> MetricsRecord | None:
    """Run one config x seed cell, persisting success or failure.

    With ``resume`` a successful cell is loaded instead of re-run, and a
    failed or unreadable one runs again, its new file replacing the old one.
    ``trained`` maps (model key, seed) to the record and checkpoint of a
    cell that trained or loaded that model: a cell found there is not
    trained again but written from them, under its own config id. Each
    successful cell adds itself to it. Any exception is recorded as
    ``Type: message`` with its traceback and swallowed so a sweep continues
    past it; KeyboardInterrupt is not an Exception and still stops the
    command.
    """
    run = resolve_run(run)
    spec, cid = run.spec, run.cid
    path = cell_path(spec.output_dir, cid, seed)
    checkpoint = Path(spec.output_dir) / "checkpoints" / f"{cid}-seed{seed}.ckpt"
    trained = {} if trained is None else trained
    key = (run.model_key, seed)
    if resume and path.exists():
        try:
            record, _ = _read_cell(path)
        except CellFileError:
            record = None
        if record is not None:
            if checkpoint.exists():
                trained.setdefault(key, (record, checkpoint))
            return record

    described = {**config_identity(run.cfg, run.source.descriptor, spec.training), "seed": seed, "config_id": cid}
    twin = trained.get(key)
    started = time.monotonic()
    record = None
    try:
        if twin is None:
            record = run_train(run, seed, checkpoint_path=checkpoint)
        else:
            write_atomic(checkpoint, twin[1].read_bytes())
            record = replace(twin[0], config_id=cid)
        outcome = {"record": record.to_dict()}
    except Exception as exc:
        outcome = {"error": f"{type(exc).__name__}: {exc}", "traceback": traceback.format_exc()}
    _write_json(
        path,
        {
            "failed": record is None,
            **outcome,
            "resolved": described,
            "runtime_s": time.monotonic() - started,
        },
    )
    if record is not None:
        trained.setdefault(key, (record, checkpoint))
    return record


def run_cells(runs: list[ResolvedRun], resume: bool = False) -> list[list[MetricsRecord | None]]:
    """Run each run's seeds in order, then rebuild each output directory's
    roll-ups once. Returns the records grouped by run, None for a failed cell.

    Each model is trained once per seed: a cell whose model key and seed
    match an earlier successful cell of this call copies that cell's record
    and checkpoint instead."""
    trained: Trained = {}
    records = [
        [run_cell(run, seed, resume=resume, trained=trained) for seed in run.spec.seeds]
        for run in runs
    ]
    for output_dir in dict.fromkeys(run.spec.output_dir for run in runs):
        rebuild_rollup(output_dir)
    return records


def load_records(output_dir: str | Path) -> list[MetricsRecord]:
    """All successful cell records under ``output_dir``, sorted for stability.
    An unreadable cell file raises CellFileError naming it."""
    return [record for record, _ in _read_cells(output_dir) if record is not None]


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
    _write_csv(out / "results.csv", RECORD_COLUMNS, [record.to_dict().values() for record in records])

    aggregates = aggregate_by_config(records)
    best_id = None
    if aggregates:
        best_id = max(aggregates, key=lambda s: selection_score(s.mean)).config_id
    header = ["config_id", "count"]
    header += [f"mean_{name}" for name in AGGREGATED_FIELDS]
    header += [f"sd_{name}" for name in AGGREGATED_FIELDS]
    header.append("is_best")
    rows = [
        [s.config_id, s.count, *(s.mean[n] for n in AGGREGATED_FIELDS),
         *(s.sd[n] for n in AGGREGATED_FIELDS), int(s.config_id == best_id)]
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
    if parts[0] not in ("model", "training", "data"):
        parts.insert(0, "model")
    payload = spec.to_dict()
    _set_path(payload, parts, value)
    return RunSpec.from_dict(payload)


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
    shared: dict[str, DataSource] = {}
    cells = [(assignment, resolve_run(run, shared)) for assignment, run in enumerate_sweep(spec)]
    _write_json(
        Path(spec.base.output_dir) / "sweep_manifest.json",
        {
            "axes": spec.axes,
            "cells": [{"axes": a, "config_id": run.cid} for a, run in cells],
        },
    )
    grouped = run_cells([run for _, run in cells], resume)
    return [record for group in grouped for record in group if record is not None]


# -- parameter matching and scaling curves ----------------------------------------------------


def match_parameters(
    baseline: ModelConfig, target_params: int, tolerance: float = 0.02
) -> tuple[ModelConfig, int]:
    """The baseline at the allowed width whose count is nearest the target
    (ties to the smaller d), if within ``tolerance``. Counts grow with d, so it
    walks the widths ``ModelConfig`` accepts up to the first count at or above
    the target, or to 2**16, and keeps that width or the accepted one below."""
    if tolerance <= 0:
        raise ConfigError(f"tolerance must be positive, got {tolerance}")
    if target_params < 1:
        raise ConfigError(f"target_params must be positive, got {target_params}")
    below = None
    for d in itertools.count(2):
        try:
            here = (count_parameters(replace(baseline, d=d)), d)
        except ConfigError:
            continue
        if here[0] >= target_params or d >= 1 << 16:
            break
        below = here
    achieved, best = min(filter(None, (below, here)), key=lambda c: (abs(c[0] - target_params), c[1]))
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
    mean_ndcg10: float


@dataclass
class ScalingReport:
    points: list[ScalingPoint]
    target_params: int
    matched_width: int
    achieved_params: int
    relative_error: float


def run_scaling_curve(spec: ScalingCurveSpec, resume: bool = False) -> ScalingReport:
    """Accuracy-versus-parameters protocol: plain baselines across widths
    (always including the parameter-matched one) against the GCA variant.
    Every arm is an ``apply_axis`` edit of the base run.

    A point whose seeds all failed is left out of the roll-up, which is
    written for the points that ran; then ContractError names the failed
    points."""
    shared: dict[str, DataSource] = {}
    baseline = apply_axis(spec.base, "gca", {"placements": []})
    gca_run = resolve_run(apply_axis(spec.base, "gca", dataclasses.asdict(spec.gca_variant)), shared)
    target = count_parameters(gca_run.cfg)
    matched_cfg, achieved = match_parameters(resolve_run(baseline, shared).cfg, target)

    widths = sorted(set(spec.width_grid) | {matched_cfg.d})
    runs = [resolve_run(apply_axis(baseline, "d", width), shared) for width in widths] + [gca_run]

    points, failed = [], []
    for run, records in zip(runs, run_cells(runs, resume)):
        kind = "gca" if run is gca_run else "baseline"
        group = [record for record in records if record is not None]
        if not group:
            failed.append(f"{kind} d={run.cfg.d}")
            continue
        mean = aggregate_over_seeds(group).mean
        points.append(
            ScalingPoint(
                kind=kind,
                d=run.cfg.d,
                config_id=run.cid,
                param_count=int(mean["param_count"]),
                mean_ndcg10_a=mean["ndcg10_a"],
                mean_ndcg10_b=mean["ndcg10_b"],
                mean_ndcg10=selection_score(mean),
            )
        )

    report = ScalingReport(
        points=points,
        target_params=target,
        matched_width=matched_cfg.d,
        achieved_params=achieved,
        relative_error=abs(achieved - target) / target,
    )
    out = Path(spec.base.output_dir)
    _write_json(out / "scaling_report.json", dataclasses.asdict(report))
    _write_csv(
        out / "scaling.csv",
        [field.name for field in dataclasses.fields(ScalingPoint)],
        map(dataclasses.astuple, points),
    )
    if points:
        series = {
            kind: [(float(p.param_count), p.mean_ndcg10) for p in points if p.kind == kind]
            for kind in ("baseline", "gca")
        }
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
    summaries: dict[str, dict[str, float | None]]
    aggregates: list[AggregateSummary]
    record_count: int
    output_dir: str

    def correlation(self, domain: str, x_field: str, y_field: str) -> CorrelationResult:
        for result in self.correlations:
            if (result.domain, result.x_field, result.y_field) == (domain, x_field, y_field):
                return result
        raise KeyError((domain, x_field, y_field))


def analyze(output_dir: str | Path) -> AnalysisReport:
    """Correlations and cosine distributions over the recorded cells.

    A cell without a GCA placement has no cross-attention, so its cosine
    probes read 0.0 by construction: the cosine statistics cover only the
    cells with a placement. Writes analysis.csv (correlations),
    cosine_summary.csv (five-number summaries, empty without such a cell)
    and, when there is such a cell, one scatter SVG per domain for the
    orthogonality/accuracy relation and a box plot of the cosine channels.
    """
    cells = [(record, resolved) for record, resolved in _read_cells(output_dir) if record is not None]
    records = [record for record, _ in cells]
    if len(records) < 3:
        raise ContractError(f"analysis needs at least 3 records, found {len(records)}")
    gated = [record for record, resolved in cells if resolved["model"]["gca"]["placements"]]
    out = Path(output_dir)

    correlations = []
    for domain in DOMAIN_NAMES.values():
        for x_field, y_field in CORRELATION_PAIRS:
            group = gated if x_field.startswith("cos_") else records
            xs = [getattr(r, f"{x_field}_{domain}") for r in group]
            ys = [getattr(r, f"{y_field}_{domain}") for r in group]
            if len(group) < 3:
                r, note = None, f"needs at least 3 cells with a GCA placement, found {len(group)}"
            else:
                try:
                    r, note = pearson_r(xs, ys), ""
                except UndefinedCorrelationError as exc:
                    r, note = None, str(exc)
            correlations.append(CorrelationResult(domain, x_field, y_field, len(group), r, note))

    summaries = {}
    for channel in ("cos_xxprime", "cos_xy"):
        for domain in DOMAIN_NAMES.values():
            name = f"{channel}_{domain}"
            values = [getattr(r, name) for r in gated]
            summaries[name] = five_number_summary(values) if values else dict.fromkeys(QUANTILES)

    _write_csv(
        out / "analysis.csv", ("domain", "x", "y", "n", "r", "note"), map(dataclasses.astuple, correlations)
    )
    _write_csv(
        out / "cosine_summary.csv",
        ("field",) + QUANTILES,
        ([name] + [summary[q] for q in QUANTILES] for name, summary in summaries.items()),
    )

    scatters = {domain: out / f"orthogonality_{domain}.svg" for domain in DOMAIN_NAMES.values()}
    box = out / "cosine_box.svg"
    if not gated:
        # An earlier analysis's plots would show cells this one leaves out.
        for path in (*scatters.values(), box):
            path.unlink(missing_ok=True)
    else:
        for domain, path in scatters.items():
            points = [(getattr(r, f"cos_xxprime_{domain}"), getattr(r, f"ndcg10_{domain}")) for r in gated]
            write_svg(
                path,
                scatter_svg(
                    {f"domain {domain.upper()}": points},
                    "|cos(query, crossed)|",
                    "test NDCG@10",
                    f"Orthogonality versus accuracy, domain {domain.upper()}",
                ),
            )
        write_svg(box, box_svg(summaries, "|cosine|", "Cosine channels across GCA cells"))

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
    for _, info in _read_cells(out):
        entry = resolved.setdefault(info["config_id"], {**info, "seeds": []})
        entry["seeds"].append(info["seed"])
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
        value = f"omitted ({c.note})" if c.r is None else f"{c.r:.4f}"
        lines.append(f"| {c.domain} | {c.x_field} vs {c.y_field} | {c.n} | {value} |")
    lines.append("")
    lines.append("## Cosine channel distributions over cells with a GCA placement")
    lines.append("")
    lines.append("| field | min | q1 | median | q3 | max |")
    lines.append("|---|---|---|---|---|---|")
    for name, s in report.summaries.items():
        values = ("" if s[q] is None else f"{s[q]:.4f}" for q in QUANTILES)
        lines.append(f"| {name} | {' | '.join(values)} |")
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
    return write_atomic(out / "report.md", "\n".join(lines))
