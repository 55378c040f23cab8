"""The run ledger: a durable, append-only record of every invocation.

One JSONL file (one JSON object per line) accumulates a record per
``repro simulate`` / ``experiment`` / ``sweep`` invocation, so a
repository of runs becomes queryable history instead of scattered ad-hoc
JSON blobs.  Each record carries:

* ``id`` — a content-addressed short hash of the record itself;
* ``kind``/``argv``/``config`` — what ran and how it was asked for;
* ``fingerprints`` — the content-addressed identities the executor
  already computes (``source_fingerprint`` over package + workload
  sources, per-cell cache keys, per-program trace fingerprints), so two
  records with equal fingerprints provably simulated the same inputs;
* ``phases`` — wall-time per pipeline phase (interpret/simulate/report)
  from the profiler;
* ``stats`` — the ``SpeculationStats.summary()`` of a single
  simulation, when there is one;
* ``executor`` — the ``RunReport.counters()`` of an executor run, when
  there is one;
* ``metrics`` — a metric-registry snapshot (occupancy series dropped to
  keep the ledger compact; the full snapshot lives in ``--metrics``).

Appends are line-atomic (single ``write`` of one line, O_APPEND), reads
are fail-soft: a truncated or corrupt line is skipped, never fatal.
Recording is opt-in (``--ledger FILE`` or ``$REPRO_LEDGER``); the
default remains the zero-overhead null path.
"""

from __future__ import annotations

import hashlib
import os
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.fileio import canonical_json, read_jsonl

#: Environment variable naming the default ledger file.
LEDGER_ENV = "REPRO_LEDGER"

#: Fallback ledger path (relative to the working directory) for
#: ``repro runs`` when neither ``--ledger`` nor the env var is set.
DEFAULT_LEDGER = ".repro-ledger.jsonl"

#: Record schema version, bumped on incompatible shape changes.
LEDGER_VERSION = 1


def resolve_ledger_path(explicit: Optional[str] = None) -> Optional[str]:
    """``--ledger`` flag value, else ``$REPRO_LEDGER``, else None."""
    if explicit:
        return explicit
    env = os.environ.get(LEDGER_ENV, "").strip()
    return env or None


def make_record(
    kind: str,
    config: Optional[dict] = None,
    argv: Optional[List[str]] = None,
    fingerprints: Optional[dict] = None,
    phases: Optional[dict] = None,
    stats: Optional[dict] = None,
    executor: Optional[dict] = None,
    metrics: Optional[dict] = None,
    wall_seconds: Optional[float] = None,
    rungs: Optional[List[dict]] = None,
) -> dict:
    """One ledger record; ``id`` is the SHA-256 of the content (record
    minus the id field), so identical re-runs at different times get
    distinct ids (the timestamp is part of the content).

    *rungs* is the per-rung record of an adaptive (successive-halving)
    sweep — scale, cell count, survivors, and full-scale cost units per
    rung — so the ledger shows how the search narrowed, not just what
    won.  Plain exhaustive runs omit the field.
    """
    if metrics is not None:
        # occupancy trajectories can dominate the record; the ledger
        # keeps the queryable aggregate, --metrics keeps everything
        metrics = {k: v for k, v in metrics.items() if k != "series"}
    record = {
        "version": LEDGER_VERSION,
        "time": round(time.time(), 3),
        "kind": kind,
        "argv": list(argv) if argv is not None else None,
        "config": config or {},
        "fingerprints": fingerprints or {},
        "phases": phases or {},
        "stats": stats,
        "executor": executor,
        "metrics": metrics,
        "wall_seconds": wall_seconds,
    }
    if rungs is not None:
        record["rungs"] = list(rungs)
    record["id"] = hashlib.sha256(canonical_json(record).encode()).hexdigest()[:12]
    return record


class RunLedger:
    """Append-only JSONL store of run records."""

    def __init__(self, path):
        self.path = Path(path)

    def append(self, record: dict) -> str:
        """Append one record (assigning an id if absent); returns the id."""
        if "id" not in record:
            record = dict(record)
            record["id"] = hashlib.sha256(canonical_json(record).encode()).hexdigest()[:12]
        if self.path.parent != Path("."):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        line = canonical_json(record) + "\n"
        # one write of one line in append mode: concurrent writers (e.g.
        # parallel CI legs sharing a ledger) interleave whole lines
        with open(self.path, "a") as fh:
            fh.write(line)
        return record["id"]

    def records(self) -> List[dict]:
        """Every readable record, oldest first (corrupt lines skipped)."""
        return [record for record in read_jsonl(self.path) if "id" in record]

    def get(self, run_id: str) -> Optional[dict]:
        """The record whose id equals (or uniquely starts with) *run_id*."""
        matches = [r for r in self.records() if str(r["id"]).startswith(run_id)]
        exact = [r for r in matches if r["id"] == run_id]
        if exact:
            return exact[-1]
        if len(matches) == 1:
            return matches[0]
        return None

    def __len__(self) -> int:
        return len(self.records())


def _flat_numbers(payload, prefix="") -> Dict[str, float]:
    """Flatten nested dicts to dotted keys, numeric leaves only."""
    out: Dict[str, float] = {}
    if not isinstance(payload, dict):
        return out
    for key, value in payload.items():
        name = "%s.%s" % (prefix, key) if prefix else str(key)
        if isinstance(value, dict):
            out.update(_flat_numbers(value, name))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[name] = value
    return out


def diff_records(a: dict, b: dict) -> dict:
    """Structured comparison of two ledger records.

    Returns ``config`` / ``fingerprints`` / ``stats`` / ``counters`` /
    ``phases`` sections, each listing only the fields that differ (with
    numeric deltas where they exist).  ``identical`` is True when the
    run *content* matched — same config, same input fingerprints, and
    same simulated/executed outcome (wall time and phase seconds are
    expected to vary between runs and do not count).
    """
    sections: Dict[str, dict] = {}

    for section in ("config", "fingerprints"):
        sa, sb = a.get(section) or {}, b.get(section) or {}
        changed = {}
        for key in sorted(set(sa) | set(sb)):
            if sa.get(key) != sb.get(key):
                changed[key] = {"a": sa.get(key), "b": sb.get(key)}
        sections[section] = changed

    for section in ("stats", "counters", "phases"):
        source = {
            "stats": lambda r: _flat_numbers(r.get("stats") or {}),
            "counters": lambda r: _flat_numbers(
                {
                    "executor": r.get("executor") or {},
                    "metrics": (r.get("metrics") or {}).get("counters", {}),
                }
            ),
            "phases": lambda r: _flat_numbers(r.get("phases") or {}),
        }[section]
        na, nb = source(a), source(b)
        changed = {}
        for key in sorted(set(na) | set(nb)):
            va, vb = na.get(key), nb.get(key)
            if va != vb:
                entry = {"a": va, "b": vb}
                if va is not None and vb is not None:
                    entry["delta"] = round(vb - va, 6)
                changed[key] = entry
        sections[section] = changed

    # outcome identity excludes wall-clock noise: drop wall-time-like
    # counters and all phase timings from the verdict
    outcome = {
        key: entry
        for key, entry in sections["counters"].items()
        if "wall_seconds" not in key
    }
    identical = not (
        sections["config"]
        or sections["fingerprints"]
        or sections["stats"]
        or outcome
    )
    return {
        "a": a["id"],
        "b": b["id"],
        "identical": identical,
        **sections,
    }
