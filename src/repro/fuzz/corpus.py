"""The replayable fuzz corpus: shrunk disagreements as regression tests.

Every disagreement the differential harness finds — and a handful of
hand-picked *anchor* programs — is persisted as one JSON file under
``tests/corpus/fuzz/``.  An entry records the program, its ground
truth, and the verdict each oracle produced at recording time.  The
corpus regression test (satellite 3) replays every entry through both
oracles and requires the recomputed verdicts to match the recorded
ones **bit for bit** (compared as canonical JSON, equivalence-tier
style): the corpus freezes oracle behaviour on exactly the programs
that once exposed a gap.

Entry schema (``fuzz-corpus/v1``)::

    {
      "schema": "fuzz-corpus/v1",
      "digest": "<sha256 of the canonical program JSON>",
      "kind": "anchor" | <disagreement kind>,
      "note": "<human context>",
      "program": {...},                  # fuzz-program/v1
      "ground_truth": {"racy": ..., "expected_types": [...]},
      "static": {...},                   # static_verdict() output
      "dynamic": {...},                  # dynamic_verdict() output
      "mc": {...}                        # mc_verdict() output (optional:
    }                                    # only when recorded with mc on)
"""

from __future__ import annotations

import json
import os
from typing import List, Optional, Tuple

from repro.fuzz.oracles import safe_dynamic_verdict, safe_static_verdict
from repro.fuzz.program import FuzzProgram, program_digest

CORPUS_SCHEMA = "fuzz-corpus/v1"


class CorpusError(ValueError):
    """A corpus entry that cannot be read or fails validation."""


def ground_truth_dict(program: FuzzProgram) -> dict:
    return {
        "racy": program.racy,
        "expected_types": sorted(t.value for t in program.expected_types()),
    }


def make_entry(
    program: FuzzProgram,
    kind: str,
    note: str = "",
    detector: str = "scord",
    static: Optional[dict] = None,
    dynamic: Optional[dict] = None,
    mc: Optional[dict] = None,
) -> dict:
    """Build a corpus entry, computing any verdict not handed in.

    The mc verdict is only recorded when handed in (campaigns run with
    ``--mc``): unlike the other two oracles it is not computed by
    default, so mc-free corpora stay byte-identical to before PR 9.
    """
    entry = {
        "schema": CORPUS_SCHEMA,
        "digest": program_digest(program),
        "kind": kind,
        "note": note,
        "program": program.to_dict(),
        "ground_truth": ground_truth_dict(program),
        "static": (static if static is not None
                   else safe_static_verdict(program)),
        "dynamic": (dynamic if dynamic is not None
                    else safe_dynamic_verdict(program, detector)),
    }
    if mc is not None:
        entry["mc"] = mc
    return entry


def entry_filename(entry: dict) -> str:
    return f"{entry['kind']}-{entry['digest'][:12]}.json"


def record_entry(entry: dict, corpus_dir) -> str:
    """Persist *entry* into *corpus_dir*; returns the file path.

    Idempotent per (kind, program): the digest-derived filename makes
    re-recording the same disagreement overwrite, not duplicate.
    """
    from repro.experiments.store import atomic_write_text

    os.makedirs(corpus_dir, exist_ok=True)
    path = os.path.join(os.fspath(corpus_dir), entry_filename(entry))
    atomic_write_text(path, json.dumps(entry, indent=2, sort_keys=True) + "\n")
    return path


def load_corpus(corpus_dir) -> List[Tuple[str, dict]]:
    """All corpus entries under *corpus_dir*, sorted by filename."""
    corpus_dir = os.fspath(corpus_dir)
    if not os.path.isdir(corpus_dir):
        return []
    out = []
    for name in sorted(os.listdir(corpus_dir)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(corpus_dir, name)
        with open(path) as handle:
            try:
                entry = json.load(handle)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}: invalid JSON ({exc})") from exc
        if entry.get("schema") != CORPUS_SCHEMA:
            raise CorpusError(
                f"{path}: schema {entry.get('schema')!r}, "
                f"expected {CORPUS_SCHEMA!r}"
            )
        out.append((path, entry))
    return out


def replay_entry(entry: dict) -> List[str]:
    """Re-run both oracles on *entry*; returns mismatch descriptions.

    Empty list = the entry replays green: the program re-derives the
    recorded digest and ground truth, and both oracles reproduce their
    recorded verdicts byte-for-byte under canonical JSON.
    """
    from repro.experiments.store import canonical_json

    problems = []
    program = FuzzProgram.from_dict(entry["program"])
    digest = program_digest(program)
    if digest != entry["digest"]:
        problems.append(
            f"digest drift: recorded {entry['digest'][:12]}, "
            f"recomputed {digest[:12]}"
        )
    truth = ground_truth_dict(program)
    if canonical_json(truth) != canonical_json(entry["ground_truth"]):
        problems.append(
            f"ground-truth drift: recorded {entry['ground_truth']}, "
            f"recomputed {truth}"
        )
    static = safe_static_verdict(program)
    if canonical_json(static) != canonical_json(entry["static"]):
        problems.append(
            f"static verdict drift: recorded {entry['static']}, "
            f"recomputed {static}"
        )
    recorded = entry["dynamic"]
    dynamic = safe_dynamic_verdict(
        program, detector=recorded.get("detector", "scord")
    )
    if canonical_json(dynamic) != canonical_json(recorded):
        problems.append(
            f"dynamic verdict drift: recorded {recorded}, "
            f"recomputed {dynamic}"
        )
    recorded_mc = entry.get("mc")
    if recorded_mc is not None:
        from repro.fuzz.oracles import DEFAULT_MC_BUDGET, safe_mc_verdict

        mc = safe_mc_verdict(
            program,
            budget=recorded_mc.get("budget", DEFAULT_MC_BUDGET),
            detector=recorded_mc.get("detector", "scord"),
        )
        if canonical_json(mc) != canonical_json(recorded_mc):
            problems.append(
                f"mc verdict drift: recorded {recorded_mc}, "
                f"recomputed {mc}"
            )
    return problems
