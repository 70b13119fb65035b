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
