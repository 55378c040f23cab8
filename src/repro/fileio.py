"""Durable files: atomic replace, tolerant JSONL reading, canonical JSON.

Each caller keeps its own error policy: the result cache and the queue
directory let a failed write raise, and the trace cache swallows it so
that a cache never fails a run.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import List, Union


def canonical_json(payload) -> str:
    """Deterministic JSON: sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def write_atomic(path: Path, data: Union[str, bytes]) -> None:
    """Replace *path* with *data* in one step.

    The data goes to a temporary file in the same directory, which is
    then renamed over *path*, so a reader sees the old file or the new
    one, never a torn write.  A write that fails removes its temporary
    file and leaves the old file in place.
    """
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_jsonl(path) -> List[dict]:
    """Every JSON object in the JSONL file at *path*, in file order.

    Blank lines, lines that do not parse (such as a torn last line) and
    values other than objects are skipped; a missing or unreadable file
    reads as empty.
    """
    out: List[dict] = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if isinstance(record, dict):
                    out.append(record)
    except OSError:
        return []
    return out
