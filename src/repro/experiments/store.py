"""Disk-backed run-record store: the campaign's record log.

A :class:`RunStore` is an append-only JSONL file, one
:class:`~repro.experiments.runner.RunRecord` per line, each stamped with
a schema version.  A campaign (``scord-experiments run --store``) or
the service appends every unit it answers; ``scord-compare`` diffs two
stores.  Resuming a killed campaign is the
:class:`~repro.experiments.parallel.ResultCache`'s job, not the log's.

Durability and corruption discipline:

* **Atomic append** — a record is written as one complete line, flushed
  and ``fsync``\\ ed before ``append`` returns.  A SIGKILL can at worst
  leave one torn trailing line.
* **Quarantine on load** — lines that fail to parse or validate (torn
  tails, bit rot, schema drift) are copied to ``<path>.quarantine`` and
  skipped; loading never crashes on a corrupt entry and never silently
  drops the good ones.
* **Last-entry-wins** — duplicate keys (e.g. two campaigns logged to
  one store) resolve to the most recent record.

The serialization helpers are also used by the result cache and the
campaign worker protocol, so there is exactly one wire format for a run
record.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import tempfile
from typing import Dict, Iterable, List, Optional, Tuple

from repro.common.errors import StoreCorruption, StoreError
from repro.scord.races import RaceType

#: bump when the record wire format changes incompatibly
SCHEMA_VERSION = 1

RunKey = Tuple[str, str, str, frozenset, int]

_REQUIRED_FIELDS = (
    "app", "detector", "memory", "races_enabled", "cycles", "dram_data",
    "dram_metadata", "unique_races", "race_types", "race_keys", "verified",
    "wall_seconds",
)

#: record fields that describe *how* a run went, not *what* was run or
#: found — they must never enter a cache key or a semantic comparison.
#: (Timestamps and host identity are deliberately never recorded at all.)
NON_SEMANTIC_FIELDS = frozenset({"wall_seconds"})


def run_key(
    app: str, detector: str, memory: str, races: Iterable[str],
    seed: int = 1,
) -> RunKey:
    """The memoization identity of one simulation request."""
    return (app, detector, memory, frozenset(races), int(seed))


def record_key(record) -> RunKey:
    """The memoization identity of an existing record."""
    return (record.app, record.detector, record.memory,
            record.races_enabled, record.seed)


# ----------------------------------------------------------------------
# (De)serialization
# ----------------------------------------------------------------------
def record_to_dict(record) -> dict:
    """Full-fidelity JSON form of a RunRecord (schema-stamped)."""
    return {
        "schema": SCHEMA_VERSION,
        "app": record.app,
        "detector": record.detector,
        "memory": record.memory,
        "seed": record.seed,
        "races_enabled": sorted(record.races_enabled),
        "cycles": record.cycles,
        "dram_data": record.dram_data,
        "dram_metadata": record.dram_metadata,
        "unique_races": record.unique_races,
        "race_types": sorted(t.value for t in record.race_types),
        "race_keys": sorted(
            [t.value, [pc[0], pc[1]]] for t, pc in record.race_keys
        ),
        "verified": record.verified,
        "wall_seconds": round(record.wall_seconds, 6),
    }


def record_from_dict(payload: dict):
    """Rebuild a RunRecord; raises :class:`StoreCorruption` if invalid."""
    from repro.experiments.runner import RunRecord

    if not isinstance(payload, dict):
        raise StoreCorruption(f"entry is not an object: {payload!r}")
    schema = payload.get("schema")
    if schema != SCHEMA_VERSION:
        raise StoreCorruption(
            f"unsupported schema {schema!r} (this build reads "
            f"schema {SCHEMA_VERSION})"
        )
    missing = [f for f in _REQUIRED_FIELDS if f not in payload]
    if missing:
        raise StoreCorruption(f"entry missing field(s) {missing}")
    try:
        return RunRecord(
            app=payload["app"],
            detector=payload["detector"],
            memory=payload["memory"],
            # Optional for schema-1 compatibility: pre-seed stores imply
            # the default workload seed.
            seed=int(payload.get("seed", 1)),
            races_enabled=frozenset(payload["races_enabled"]),
            cycles=int(payload["cycles"]),
            dram_data=int(payload["dram_data"]),
            dram_metadata=int(payload["dram_metadata"]),
            unique_races=int(payload["unique_races"]),
            race_types=frozenset(
                RaceType(value) for value in payload["race_types"]
            ),
            race_keys=frozenset(
                (RaceType(value), (pc[0], int(pc[1])))
                for value, pc in payload["race_keys"]
            ),
            verified=bool(payload["verified"]),
            wall_seconds=float(payload["wall_seconds"]),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise StoreCorruption(f"entry failed validation: {err}") from err


# ----------------------------------------------------------------------
# Content addressing
# ----------------------------------------------------------------------
def _jsonify(value):
    """JSON fallback for config objects (enums -> values, sets -> sorted)."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    raise TypeError(f"{value!r} is not canonically serializable")


def canonical_json(payload) -> str:
    """Machine-stable JSON text: sorted keys, tight separators.

    Two equal payloads produce byte-identical text on every machine and
    Python version, which is what makes hashing it a portable identity.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=_jsonify
    )


def semantic_record_dict(record) -> dict:
    """The record's wire form minus non-semantic fields.

    Two runs of the same unit on different machines (or at different
    parallelism) must compare equal here even though their wall-clock
    times differ.
    """
    payload = record_to_dict(record)
    for field in NON_SEMANTIC_FIELDS:
        payload.pop(field, None)
    return payload


def unit_digest(
    app: str, detector: str, memory: str, races: Iterable[str],
    seed: int = 1,
) -> str:
    """Content address of one work unit: a stable SHA-256 hex digest.

    The identity hashes what *determines the simulation's output* — the
    resolved GPU configuration, the resolved detector configuration, the
    kernel identity (app + enabled race flags), the workload seed, and
    the record schema version (so a schema bump invalidates every cached
    result instead of replaying stale wire formats).  Nothing volatile
    (timestamps, host names, wall-clock) is hashed, so the digest is
    identical across machines and across time.

    Detector and memory *labels* are resolved to their configurations
    before hashing: two labels naming the same configuration share cache
    entries.
    """
    from repro.experiments.runner import DETECTORS, gpu_config_for

    identity = {
        "schema": SCHEMA_VERSION,
        "app": app,
        "races": sorted(races),
        "seed": int(seed),
        "detector": dataclasses.asdict(DETECTORS[detector]),
        "gpu": dataclasses.asdict(gpu_config_for(memory)),
    }
    return hashlib.sha256(canonical_json(identity).encode("utf-8")).hexdigest()


def atomic_write_text(path, text: str) -> None:
    """Write *text* via temp file + rename (never torn)."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_json(path, payload) -> None:
    """Write *payload* as JSON via temp file + rename (never torn)."""
    atomic_write_text(path, json.dumps(payload, indent=2))


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class RunStore:
    """Append-only JSONL store of completed simulation records."""

    def __init__(self, path):
        self.path = os.fspath(path)
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        #: corrupt lines encountered by the most recent :meth:`load`
        self.quarantined = 0
        #: valid records read by the most recent :meth:`load`
        self.loaded = 0

    @property
    def quarantine_path(self) -> str:
        return self.path + ".quarantine"

    # ------------------------------------------------------------------
    def append(self, record) -> None:
        """Durably append one record (complete line + flush + fsync)."""
        line = json.dumps(record_to_dict(record), separators=(",", ":"))
        try:
            with open(self.path, "a") as handle:
                handle.write(line + "\n")
                handle.flush()
                os.fsync(handle.fileno())
        except OSError as err:
            raise StoreError(f"cannot append to {self.path}: {err}") from err

    # ------------------------------------------------------------------
    def load(self) -> Dict[RunKey, object]:
        """Read every valid record; quarantine (don't crash on) bad lines.

        Returns ``{run_key: RunRecord}`` with last-entry-wins semantics.
        After the call, :attr:`loaded` and :attr:`quarantined` describe
        what happened; quarantined raw lines are appended to
        ``<path>.quarantine`` for forensics.
        """
        self.quarantined = 0
        self.loaded = 0
        records: Dict[RunKey, object] = {}
        if not os.path.exists(self.path):
            return records
        bad_lines: List[Tuple[int, str, str]] = []
        try:
            with open(self.path, "r") as handle:
                lines = handle.readlines()
        except OSError as err:
            raise StoreError(f"cannot read {self.path}: {err}") from err
        for lineno, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                record = record_from_dict(json.loads(stripped))
            except (json.JSONDecodeError, StoreCorruption) as err:
                bad_lines.append((lineno, stripped, str(err)))
                continue
            records[record_key(record)] = record
            self.loaded += 1
        if bad_lines:
            self.quarantined = len(bad_lines)
            self._quarantine(bad_lines)
        return records

    def _quarantine(self, bad_lines: List[Tuple[int, str, str]]) -> None:
        try:
            with open(self.quarantine_path, "a") as handle:
                for lineno, raw, reason in bad_lines:
                    handle.write(
                        json.dumps(
                            {"line": lineno, "reason": reason, "raw": raw}
                        )
                        + "\n"
                    )
                handle.flush()
                os.fsync(handle.fileno())
        except OSError:
            # Quarantine is best-effort forensics; losing it must not
            # break the load.
            pass
