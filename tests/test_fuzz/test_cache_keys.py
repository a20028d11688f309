"""Cache-key stability for generated programs (satellite 6).

Generated-program results must be able to live in the PR 2
content-addressed cache, which requires the program's serialization to
be canonical JSON — order-independent, enum-free, machine-stable — and
the unit digest to fold in the resolved detector configuration and the
record schema version exactly like
:func:`repro.experiments.store.unit_digest` does.

The pinned hex digests below are the contract: they may only change
with a deliberate schema bump (``fuzz-program/v1`` or the store's
``SCHEMA_VERSION``), never by accident.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.store import canonical_json
from repro.fuzz import (
    Actor,
    Bug,
    FuzzProgram,
    Phase,
    PhaseKind,
    fuzz_unit_digest,
    program_digest,
)

PINNED = FuzzProgram(2, 2, (
    Phase(PhaseKind.HANDOFF, Actor(0, 0), Actor(1, 0), Bug.NARROW_FENCE),
    Phase(PhaseKind.DISJOINT),
))

PINNED_PROGRAM_DIGEST = (
    "4d6841b3c9f6a9bd82482783238339cbee0ed36bbb220ec4360f68efe539fbcc"
)
PINNED_UNIT_DIGEST_SCORD = (
    "483330c5619c140b2c93911f434f0416f72de70ac2ef09b2a08531fc16b05b96"
)


class TestProgramDigest:
    def test_pinned_value(self):
        assert program_digest(PINNED) == PINNED_PROGRAM_DIGEST

    def test_key_order_does_not_matter(self):
        """A program dict rebuilt with reversed key order — as a cache
        layer reading JSON from disk might produce — hashes the same."""
        payload = PINNED.to_dict()
        scrambled = json.loads(
            json.dumps(payload, sort_keys=True)[::-1][::-1]
        )
        reordered = {k: scrambled[k] for k in reversed(list(scrambled))}
        reordered["phases"] = [
            {k: p[k] for k in reversed(list(p))} for p in payload["phases"]
        ]
        assert (canonical_json(reordered) == canonical_json(payload))
        assert program_digest(FuzzProgram.from_dict(reordered)) == (
            PINNED_PROGRAM_DIGEST
        )

    def test_no_volatile_fields_in_serialization(self):
        text = canonical_json(PINNED.to_dict())
        assert canonical_json(PINNED.to_dict()) == text  # stable re-call
        for forbidden in ("time", "host", "path"):
            assert forbidden not in text

    def test_distinct_programs_distinct_digests(self):
        other = FuzzProgram(2, 2, (
            Phase(PhaseKind.HANDOFF, Actor(0, 0), Actor(1, 0),
                  Bug.NO_FENCE),
            Phase(PhaseKind.DISJOINT),
        ))
        assert program_digest(other) != PINNED_PROGRAM_DIGEST


class TestUnitDigest:
    def test_pinned_value(self):
        assert fuzz_unit_digest(PINNED, "scord") == PINNED_UNIT_DIGEST_SCORD

    def test_detector_partitions_the_key_space(self):
        digests = {
            fuzz_unit_digest(PINNED, "scord"),
            fuzz_unit_digest(PINNED, "base"),
            fuzz_unit_digest(PINNED, "none"),
        }
        assert len(digests) == 3

    def test_detector_label_resolves_to_configuration(self):
        """Like store.unit_digest: the label itself is not hashed — the
        resolved DetectorConfig is — so two labels naming one
        configuration would share cache entries."""
        import dataclasses

        from repro.experiments.runner import DETECTORS
        from repro.experiments.store import SCHEMA_VERSION

        identity = {
            "schema": SCHEMA_VERSION,
            "kind": "fuzz-program",
            "program": PINNED.to_dict(),
            "detector": dataclasses.asdict(DETECTORS["scord"]),
        }
        import hashlib

        expected = hashlib.sha256(
            canonical_json(identity).encode("utf-8")
        ).hexdigest()
        assert fuzz_unit_digest(PINNED, "scord") == expected

    def test_unknown_detector_label_raises(self):
        with pytest.raises(KeyError):
            fuzz_unit_digest(PINNED, "definitely-not-a-detector")
