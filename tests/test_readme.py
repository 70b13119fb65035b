"""The README's Python API example still runs as written."""

from __future__ import annotations

import re
from pathlib import Path

from gcalab.cli import load_config
from gcalab.runner import RunSpec

README = Path(__file__).resolve().parent.parent / "README.md"


def python_api_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README's Python API section has no python block"
    return match.group(1)


def test_python_api_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(python_api_block(), str(README), "exec"), namespace)
    record = namespace["record"]
    assert record.seed == 0 and 0.0 <= record.ndcg10_a <= 1.0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == str(namespace["count_parameters"](namespace["cfg"]))


def configuration_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Configuration", 1)[1]
    match = re.search(r"```jsonc\n(.*?)```", section, re.DOTALL)
    assert match, "README's Configuration section has no jsonc block"
    return match.group(1)


def test_configuration_block_loads(tmp_path):
    config = tmp_path / "example.json"
    config.write_text(configuration_block())
    spec = RunSpec.from_dict(load_config(str(config)))
    assert spec.model["gca"]["placements"] == [0]
    assert spec.seeds == (0, 1) and spec.output_dir == "runs/example"
