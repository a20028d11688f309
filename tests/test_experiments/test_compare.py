"""The run-store comparator (``scord-compare``)."""

import json

from repro.experiments.compare import compare, main
from repro.experiments.store import SCHEMA_VERSION


def record(app="RED", detector="scord", memory="default", races=(),
           cycles=1000, dram_data=50, dram_metadata=10, unique_races=0,
           verified=True):
    return {
        "schema": SCHEMA_VERSION,
        "app": app,
        "detector": detector,
        "memory": memory,
        "races_enabled": list(races),
        "cycles": cycles,
        "dram_data": dram_data,
        "dram_metadata": dram_metadata,
        "unique_races": unique_races,
        "race_types": [],
        "race_keys": [],
        "verified": verified,
        "wall_seconds": 1.0,
    }


def dump(path, records):
    """Write *records* as a JSONL run store, one record per line."""
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(path)


class TestCompare:
    def test_identical_dumps(self, tmp_path):
        a = dump(tmp_path / "a.jsonl", [record()])
        b = dump(tmp_path / "b.jsonl", [record()])
        result = compare(a, b)
        assert not result.any_difference
        assert result.unchanged == 1

    def test_cycle_regression_detected(self, tmp_path):
        a = dump(tmp_path / "a.jsonl", [record(cycles=1000)])
        b = dump(tmp_path / "b.jsonl", [record(cycles=1300)])
        result = compare(a, b)
        assert len(result.changed) == 1
        assert "+30.0%" in result.render()

    def test_small_noise_below_threshold_ignored(self, tmp_path):
        a = dump(tmp_path / "a.jsonl", [record(cycles=1000)])
        b = dump(tmp_path / "b.jsonl", [record(cycles=1010)])
        assert not compare(a, b).any_difference

    def test_detection_change_always_reported(self, tmp_path):
        a = dump(tmp_path / "a.jsonl", [record(unique_races=0)])
        b = dump(tmp_path / "b.jsonl", [record(unique_races=1)])
        result = compare(a, b)
        assert result.any_difference
        assert "0->1" in result.render()

    def test_missing_records_reported(self, tmp_path):
        a = dump(tmp_path / "a.jsonl", [record(), record(app="MM")])
        b = dump(tmp_path / "b.jsonl", [record()])
        result = compare(a, b)
        assert len(result.only_before) == 1
        assert "only in BEFORE" in result.render()

    def test_keys_include_race_flags(self, tmp_path):
        a = dump(tmp_path / "a.jsonl",
                 [record(), record(races=("block_fence",), unique_races=1)])
        b = dump(tmp_path / "b.jsonl",
                 [record(), record(races=("block_fence",), unique_races=1)])
        result = compare(a, b)
        assert result.unchanged == 2


class TestCli:
    def test_exit_codes(self, tmp_path, capsys):
        a = dump(tmp_path / "a.jsonl", [record()])
        b = dump(tmp_path / "b.jsonl", [record(cycles=2000)])
        assert main([a, a]) == 0
        assert main([a, b]) == 1
        assert main([a]) == 2

    def test_corrupt_lines_are_skipped_and_reported(self, tmp_path, capsys):
        a = dump(tmp_path / "a.jsonl", [record()])
        b = tmp_path / "b.jsonl"
        b.write_text("{torn\n" + json.dumps(record()) + "\n")
        assert main([a, str(b)]) == 0
        assert "1 corrupt line(s) skipped" in capsys.readouterr().err
