"""The disk-backed run-record store (JSONL, quarantine, atomicity)."""

import json
import os

import pytest

from repro.common.errors import StoreCorruption
from repro.experiments.runner import RunRecord
from repro.experiments.store import (
    SCHEMA_VERSION,
    RunStore,
    atomic_write_json,
    record_from_dict,
    record_key,
    record_to_dict,
    run_key,
)
from repro.scord.races import RaceType


def make_record(**overrides) -> RunRecord:
    fields = dict(
        app="RED",
        detector="scord",
        memory="default",
        races_enabled=frozenset({"block_fence"}),
        cycles=12345,
        dram_data=100,
        dram_metadata=25,
        unique_races=2,
        race_types=frozenset(
            {RaceType.MISSING_BLOCK_FENCE, RaceType.SCOPED_ATOMIC}
        ),
        race_keys=frozenset(
            {
                (RaceType.MISSING_BLOCK_FENCE, ("red_kernel", 42)),
                (RaceType.SCOPED_ATOMIC, ("red_kernel", 57)),
            }
        ),
        verified=False,
        wall_seconds=0.25,
    )
    fields.update(overrides)
    return RunRecord(**fields)


class TestRoundTrip:
    def test_record_round_trips_through_json(self):
        """Includes the FrozenSet / RaceType / nested-tuple fields."""
        record = make_record()
        payload = json.loads(json.dumps(record_to_dict(record)))
        rebuilt = record_from_dict(payload)
        assert rebuilt == record
        assert rebuilt.races_enabled == frozenset({"block_fence"})
        assert rebuilt.race_types == record.race_types
        assert rebuilt.race_keys == record.race_keys
        assert isinstance(next(iter(rebuilt.race_types)), RaceType)

    def test_empty_sets_round_trip(self):
        record = make_record(
            races_enabled=frozenset(),
            race_types=frozenset(),
            race_keys=frozenset(),
            unique_races=0,
            verified=True,
        )
        assert record_from_dict(record_to_dict(record)) == record

    def test_schema_is_stamped(self):
        assert record_to_dict(make_record())["schema"] == SCHEMA_VERSION

    def test_unsupported_schema_rejected(self):
        payload = record_to_dict(make_record())
        payload["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(StoreCorruption):
            record_from_dict(payload)

    def test_missing_field_rejected(self):
        payload = record_to_dict(make_record())
        del payload["cycles"]
        with pytest.raises(StoreCorruption):
            record_from_dict(payload)

    def test_bad_race_type_rejected(self):
        payload = record_to_dict(make_record())
        payload["race_types"] = ["not-a-race-type"]
        with pytest.raises(StoreCorruption):
            record_from_dict(payload)


class TestKeys:
    def test_record_key_matches_run_key(self):
        record = make_record()
        assert record_key(record) == run_key(
            "RED", "scord", "default", ("block_fence",)
        )

    def test_races_order_is_irrelevant(self):
        assert run_key("MM", "base", "low", ("a", "b")) == run_key(
            "MM", "base", "low", ("b", "a")
        )


class TestAppendLoad:
    def test_append_then_load(self, tmp_path):
        store = RunStore(tmp_path / "store.jsonl")
        a = make_record()
        b = make_record(detector="base", cycles=99)
        store.append(a)
        store.append(b)
        loaded = RunStore(store.path).load()
        assert loaded[record_key(a)] == a
        assert loaded[record_key(b)] == b

    def test_load_missing_file_is_empty(self, tmp_path):
        store = RunStore(tmp_path / "absent.jsonl")
        assert store.load() == {}
        assert store.quarantined == 0

    def test_last_entry_wins(self, tmp_path):
        store = RunStore(tmp_path / "store.jsonl")
        store.append(make_record(cycles=1))
        store.append(make_record(cycles=2))
        loaded = store.load()
        assert len(loaded) == 1
        assert next(iter(loaded.values())).cycles == 2

    def test_parent_directory_created(self, tmp_path):
        store = RunStore(tmp_path / "deep" / "nested" / "store.jsonl")
        store.append(make_record())
        assert len(store.load()) == 1


class TestQuarantine:
    @pytest.mark.parametrize("mode", ["garbage", "truncate", "schema"])
    def test_corrupt_line_is_quarantined_not_fatal(self, tmp_path, mode):
        from repro.experiments.faults import corrupt_store

        store = RunStore(tmp_path / "store.jsonl")
        good = make_record()
        store.append(make_record(detector="base"))
        store.append(good)
        corrupt_store(store.path, line=0, mode=mode)
        loaded = store.load()
        assert store.quarantined == 1
        assert store.loaded == 1
        assert loaded[record_key(good)] == good
        # Forensics sidecar records the raw line and a reason.
        assert os.path.exists(store.quarantine_path)
        entry = json.loads(open(store.quarantine_path).read().splitlines()[0])
        assert entry["line"] == 1
        assert entry["reason"]

    def test_torn_trailing_line_is_quarantined(self, tmp_path):
        """A SIGKILL mid-append leaves a torn tail; load must survive."""
        store = RunStore(tmp_path / "store.jsonl")
        store.append(make_record())
        with open(store.path, "a") as handle:
            full = json.dumps(record_to_dict(make_record(detector="base")))
            handle.write(full[: len(full) // 2])  # no newline, half a record
        loaded = store.load()
        assert len(loaded) == 1
        assert store.quarantined == 1

    def test_blank_lines_skipped_silently(self, tmp_path):
        store = RunStore(tmp_path / "store.jsonl")
        store.append(make_record())
        with open(store.path, "a") as handle:
            handle.write("\n\n")
        assert len(store.load()) == 1
        assert store.quarantined == 0


class TestAtomicWrite:
    def test_write_and_content(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_json(path, {"hello": [1, 2, 3]})
        assert json.loads(path.read_text()) == {"hello": [1, 2, 3]}

    def test_no_temp_file_left_behind(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_json(path, [1])
        atomic_write_json(path, [2])
        assert json.loads(path.read_text()) == [2]
        assert os.listdir(tmp_path) == ["out.json"]
