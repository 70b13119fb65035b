"""The one way the lab writes a file: whole, or not at all."""

from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path: str | Path, content: str | bytes) -> Path:
    """Write ``content`` (text as UTF-8) to ``path``, making its parent
    directories. The bytes go to a temporary file beside the target, which
    is then renamed over it, so a crash or a concurrent reader sees the old
    file or the new one, never part of one. On any failure the temporary
    file is removed and the error re-raised."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    data = content.encode("utf-8") if isinstance(content, str) else content
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path
