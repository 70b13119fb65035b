"""The benchmark's hooks into the lab resolve.

``perfbench/tracer.py`` patches named functions and methods of the lab, and
``perfbench/workloads.py`` reaches the lab through module attributes. A patch
site that is renamed or removed under ``src/`` fails here, not only when the
benchmark runs.
"""

import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))


def test_tracer_finds_every_patch_site_and_restores_it(perfbench):
    tracer = importlib.import_module("tracer").Tracer()
    assert tracer._patches
    with tracer.installed():
        assert all(getattr(owner, attr) is wrapper for owner, attr, _, wrapper in tracer._patches)
    assert all(getattr(owner, attr) is original for owner, attr, original, _ in tracer._patches)


def test_workloads_import_and_match_the_benchmark(perfbench):
    workloads = importlib.import_module("workloads")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in declared)


WORKLOAD_NAMES = sorted(w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"])


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_plain_and_traced_units_run_clean_and_agree(perfbench, tmp_path, name):
    """One unit of each workload, then one under the tracer: the benchmark's
    calls into the lab still match its signatures, and tracing changes no
    record."""
    workload = importlib.import_module("workloads").WORKLOADS[name]
    tracer = importlib.import_module("tracer").Tracer()
    state = workload.setup(1, tmp_path)
    plain = workload.unit(state)
    with tracer.installed():
        traced = workload.unit(state)
    for unit in (plain, traced):
        assert unit.failed == 0
        assert unit.problems == []
    assert plain.digest == traced.digest


def test_traced_train_steps_time_backward_and_count_every_node(perfbench, tmp_path, monkeypatch):
    """The tracer's per-op backward hook and node count still reach the graph:
    a broken hook would zero them without moving any digest. The tracer wraps
    the ops in its TENSOR_OPS, which leave out the fused ``attention``, so the
    count is of the nodes those ops built."""
    from gcalab import backbone
    from gcalab import tensor as T

    tracer_module = importlib.import_module("tracer")
    per_step = []
    training_loss = backbone.DualDomainModel.training_loss

    def counted(self, *args, **kwargs):
        loss = training_loss(self, *args, **kwargs)
        ops = [node.backward.__qualname__.split(".")[0]
               for node in T._toposort(loss._node) if node.backward is not None]
        per_step.append(ops)
        return loss

    monkeypatch.setattr(backbone.DualDomainModel, "training_loss", counted)
    workload = importlib.import_module("workloads").WORKLOADS["train-steps"]
    tracer = tracer_module.Tracer()
    state = workload.setup(1, tmp_path)
    with tracer.installed():
        workload.unit(state)
    table = tracer.table()
    assert table["tensor.matmul.backward.calls"] > 0
    assert per_step and {op for ops in per_step for op in ops} <= set(tracer_module.TENSOR_OPS) | {"attention"}
    traced = [sum(op in tracer_module.TENSOR_OPS for op in ops) for ops in per_step]
    assert table["tensor.nodes_per_step"] == sum(traced) / len(traced)


def test_traced_train_steps_score_through_the_hooked_method(perfbench, tmp_path):
    """Each training step scores both domains through ``score_next_item``, so
    its spans stay in the trace: a scoring path that bypassed the hooked
    method would drop them without moving any digest."""
    workload = importlib.import_module("workloads").WORKLOADS["train-steps"]
    tracer = importlib.import_module("tracer").Tracer()
    state = workload.setup(1, tmp_path)
    with tracer.installed():
        workload.unit(state)
    table = tracer.table()
    assert table["backbone.training_loss.calls"] > 0
    assert table["backbone.score_next_item.calls"] == 2 * table["backbone.training_loss.calls"]
