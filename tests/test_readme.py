"""The README's Python API example still runs as written."""

from __future__ import annotations

import re
from pathlib import Path

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
