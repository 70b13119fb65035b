"""Span tracing of gcalab from the outside.

``Tracer`` wraps the public functions and methods of the lab's modules with
timing spans while it is installed, and puts every original back when it is
removed. Nothing under ``src/`` knows about it. Spans (name, start, end,
parent, run id) are kept in memory and written out once, when the run ends;
per-layer totals and self times are derived from them afterwards.

Tensor ops get two more hooks, both read from the node an op returns: each
graph node an op creates is counted (split by whether it was built inside
``training_loss`` or inside ``evaluate``), and the node's backward closure is
wrapped so that backward time is split per op kind as well.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import Counter
from contextlib import contextmanager

import gcalab
from gcalab import (
    attention,
    backbone,
    checkpoint,
    data,
    gca,
    metrics,
    optim,
    runner,
    svg,
    tensor,
)

MODULES = {
    "runner": runner,
    "data": data,
    "backbone": backbone,
    "attention": attention,
    "gca": gca,
    "tensor": tensor,
    "optim": optim,
    "metrics": metrics,
    "checkpoint": checkpoint,
    "svg": svg,
}

TENSOR_OPS = (
    "add", "sub", "mul", "sigmoid", "tanh", "relu", "softplus", "reshape",
    "transpose", "narrow", "pad_axis", "concat_lastdim", "sum_all", "matmul",
    "softmax_lastdim", "layernorm", "embedding_gather", "select_positions",
    "dropout",
)

# Module-level public functions, wrapped wherever the lab refers to them.
FUNCTIONS = {
    "runner": (
        "load_dataset", "data_descriptor", "resolve_model_config", "config_id",
        "evaluate", "run_train", "run_cell", "load_records", "rebuild_rollup",
        "enumerate_sweep", "run_sweep", "analyze", "write_report",
    ),
    "data": (
        "generate_synthetic", "draw_user_interests", "save_log", "load_log",
        "split_leave_one_out", "sample_excluding", "sample_negatives",
        "build_inputs", "stage_targets",
    ),
    "backbone": ("build", "count_parameters", "install_placements"),
    "attention": ("apply_mask", "add_position_embedding"),
    "gca": ("align_lengths",),
    "tensor": TENSOR_OPS + ("backward",),
    "metrics": (
        "ndcg_at_k", "auc", "masked_abs_cosine", "cosine_probe_update",
        "pearson_r", "five_number_summary", "aggregate_over_seeds",
    ),
    "checkpoint": ("save_checkpoint", "load_checkpoint"),
    "svg": ("scatter_svg", "box_svg", "write_svg"),
}

GCA_STAGES = (0, 1, 2)


def _forward_name(tracer: "Tracer", args) -> str:
    # Split by caller span: the same forward serves training and evaluation.
    if tracer.active["runner.evaluate"]:
        return "backbone.forward.eval"
    if tracer.active["backbone.training_loss"]:
        return "backbone.forward.train"
    return "backbone.forward.other"


def _gca_name(tracer: "Tracer", args) -> str:
    # Blocks are built with the prefix gca.<stage>.<domain>; the gate
    # parameters carry it in their names.
    stage, domain = args[0].gate_w1.name.split(".")[1:3]
    return f"gca.GcaBlock.{stage}.{domain}"


# (module, class, method, span name or a function of (tracer, args) giving it)
METHODS = (
    ("backbone", "DualDomainModel", "forward", _forward_name),
    ("backbone", "DualDomainModel", "training_loss", "backbone.training_loss"),
    ("backbone", "DualDomainModel", "score_next_item", "backbone.score_next_item"),
    ("backbone", "LowRankAdapter", "apply", "backbone.LowRankAdapter.apply"),
    ("attention", "Encoder", "__call__", "attention.Encoder"),
    ("attention", "EncoderBlock", "__call__", "attention.EncoderBlock"),
    ("attention", "MultiHeadAttention", "__call__", "attention.MultiHeadAttention"),
    ("gca", "GcaBlock", "__call__", _gca_name),
    ("gca", "GcaBlock", "gate_ffn", "gca.GcaBlock.gate_ffn"),
    ("optim", "Adam", "step", "optim.Adam.step"),
    ("optim", "Adam", "zero_grad", "optim.Adam.zero_grad"),
)


def span_names() -> list[str]:
    """Every span name a traced run can record, called or not."""
    names = [f"{module}.{fn}" for module, fns in FUNCTIONS.items() for fn in fns]
    names += [f"tensor.{op}.backward" for op in TENSOR_OPS]
    for _, _, _, name in METHODS:
        if isinstance(name, str):
            names.append(name)
    names += [f"backbone.forward.{kind}" for kind in ("train", "eval", "other")]
    names += [f"gca.GcaBlock.{s}.{d}" for s in GCA_STAGES for d in ("a", "b")]
    return names


# Counts taken at the layer boundaries, reported per unit beside the spans.
COUNTERS = (
    "tensor.nodes_per_step",
    "tensor.graph_nodes.eval",
    "data.sample_negatives.useful_ratio",
)


def metric_names() -> set[str]:
    names = {f"{span}.{field}" for span in span_names() for field in ("calls", "s", "self_s")}
    return names | set(COUNTERS)


class Tracer:
    """Records spans while installed; one run id per traced unit of work."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, run id]
        self.stack: list[int] = []
        self.active: Counter = Counter()
        self.run_id = -1
        self.counts: list[Counter] = []
        self._draws: set = set()
        self._patches = self._plan()

    # -- installation ----------------------------------------------------

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every patch site.

        A function is patched in every gcalab module that holds it under
        that name, so ``from .data import sample_negatives`` in the runner is
        traced as well as ``data.sample_negatives``.
        """
        holders = [gcalab, *MODULES.values()]
        plan = []
        for module_name, fns in FUNCTIONS.items():
            module = MODULES[module_name]
            for fn_name in fns:
                original = getattr(module, fn_name)
                after = self._after_op if module_name == "tensor" and fn_name != "backward" else None
                if fn_name == "sample_negatives":
                    after = self._after_negatives
                wrapper = self._wrap(original, f"{module_name}.{fn_name}", after)
                for holder in holders:
                    for attr, value in vars(holder).items():
                        if value is original:
                            plan.append((holder, attr, original, wrapper))
        for module_name, cls_name, method, name in METHODS:
            cls = getattr(MODULES[module_name], cls_name)
            original = cls.__dict__[method]
            plan.append((cls, method, original, self._wrap(original, name, None)))
        return plan

    @contextmanager
    def installed(self):
        """Trace one unit of work under a fresh run id."""
        self.run_id += 1
        self.counts.append(Counter())
        self._draws = set()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _ in reversed(self._patches):
                setattr(owner, attr, original)
            counts = self.counts[-1]
            counts["negatives.distinct"] = len(self._draws)

    # -- span recording --------------------------------------------------

    def _wrap(self, fn, name, after):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(tracer, args)
            record = [span_name, clock(), 0, tracer.stack[-1] if tracer.stack else -1, tracer.run_id]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(record)
            tracer.active[span_name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                tracer.stack.pop()
                tracer.active[span_name] -= 1
            if after is not None:
                after(name, args, result)
            return result

        traced.gcalab_traced = True
        return traced

    def _after_op(self, name, args, result) -> None:
        closure = getattr(result, "_backward", None)
        if closure is None or getattr(closure, "gcalab_traced", False):
            return  # a leaf, or a node an inner op already created
        counts = self.counts[-1]
        if self.active["backbone.training_loss"]:
            counts["nodes.train"] += 1
        if self.active["runner.evaluate"]:
            counts["nodes.eval"] += 1
        result._backward = self._wrap(closure, f"{name}.backward", None)

    def _after_negatives(self, name, args, result) -> None:
        _, user_index, domain = args[:3]
        self._draws.add((int(user_index), int(domain), hash(result.tobytes())))
        self.counts[-1]["negatives.draws"] += 1

    # -- results ---------------------------------------------------------

    def table(self) -> dict[str, float]:
        """Per-unit means of calls, inclusive seconds and self seconds.

        Inclusive time counts only the outermost span of a name, so a
        function that reaches itself again is not counted twice. Self time
        is a span's duration minus the durations of its direct children.
        """
        runs = max(self.run_id + 1, 1)
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        total_ns: Counter = Counter()
        self_ns: Counter = Counter()
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[index]
            if not self._has_ancestor(parent, name):
                total_ns[name] += end - start
        out: dict[str, float] = {}
        for name in span_names():
            out[f"{name}.calls"] = calls[name] / runs
            out[f"{name}.s"] = total_ns[name] / 1e9 / runs
            out[f"{name}.self_s"] = self_ns[name] / 1e9 / runs
        train_losses = calls["backbone.training_loss"]
        nodes_train = sum(c["nodes.train"] for c in self.counts)
        out["tensor.nodes_per_step"] = nodes_train / train_losses if train_losses else 0.0
        out["tensor.graph_nodes.eval"] = sum(c["nodes.eval"] for c in self.counts) / runs
        ratios = [
            c["negatives.distinct"] / c["negatives.draws"] for c in self.counts if c["negatives.draws"]
        ]
        # No draws at all wastes none.
        out["data.sample_negatives.useful_ratio"] = sum(ratios) / len(ratios) if ratios else 1.0
        return out

    def _has_ancestor(self, parent: int, name: str) -> bool:
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path) -> None:
        """Write every span as gzipped JSON: a name table plus one row each."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        rows = [[index[name], start, end, parent, run] for name, start, end, parent, run in self.spans]
        payload = {
            "columns": ["name", "start_ns", "end_ns", "parent", "run_id"],
            "names": names,
            "spans": rows,
        }
        with gzip.open(path, "wt") as handle:
            json.dump(payload, handle, separators=(",", ":"))
