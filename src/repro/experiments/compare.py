"""Compare two campaign run stores (``scord-experiments --store``).

Useful when calibrating the simulator or reviewing a change: run the
exhibits before and after, log both to a store, and diff:

    scord-experiments fig8 --quiet --store before.jsonl
    # ... change something ...
    scord-experiments fig8 --quiet --store after.jsonl
    scord-compare before.jsonl after.jsonl

Each store is read with :meth:`RunStore.load
<repro.experiments.store.RunStore.load>` (corrupt lines quarantined,
last entry wins).  Records are matched on (app, detector, memory,
races_enabled); the report lists cycle and DRAM deltas,
detection-outcome changes, and records that exist on only one side.
"""

from __future__ import annotations

import dataclasses
import sys
from typing import Dict, List, Tuple

from repro.experiments.store import RunStore, record_to_dict
from repro.experiments.tables import render_table

Key = Tuple[str, str, str, Tuple[str, ...]]


def _load(path: str) -> Dict[Key, dict]:
    store = RunStore(path)
    records = store.load()
    if store.quarantined:
        print(f"[{path}: {store.quarantined} corrupt line(s) skipped, "
              f"see {store.quarantine_path}]", file=sys.stderr)
    table: Dict[Key, dict] = {}
    for record in records.values():
        key = (
            record.app,
            record.detector,
            record.memory,
            tuple(sorted(record.races_enabled)),
        )
        table[key] = record_to_dict(record)
    return table


@dataclasses.dataclass
class Comparison:
    """Structured diff of two run stores."""

    changed: List[Tuple[Key, dict, dict]]
    only_before: List[Key]
    only_after: List[Key]
    unchanged: int

    @property
    def any_difference(self) -> bool:
        return bool(self.changed or self.only_before or self.only_after)

    def render(self, threshold: float = 0.02) -> str:
        rows = []
        for key, before, after in self.changed:
            app, detector, memory, races = key
            label = f"{app}/{detector}" + (f"+{','.join(races)}" if races else "")
            if memory != "default":
                label += f"@{memory}"
            cycles_delta = (
                (after["cycles"] - before["cycles"]) / max(1, before["cycles"])
            )
            dram_before = before["dram_data"] + before["dram_metadata"]
            dram_after = after["dram_data"] + after["dram_metadata"]
            dram_delta = (dram_after - dram_before) / max(1, dram_before)
            races_note = ""
            if before["unique_races"] != after["unique_races"]:
                races_note = (
                    f"{before['unique_races']}->{after['unique_races']}"
                )
            verified_note = ""
            if before["verified"] != after["verified"]:
                verified_note = f"{before['verified']}->{after['verified']}"
            rows.append(
                (
                    label,
                    f"{100 * cycles_delta:+.1f}%",
                    f"{100 * dram_delta:+.1f}%",
                    races_note or "-",
                    verified_note or "-",
                )
            )
        out = [
            render_table(
                f"Dump comparison ({len(self.changed)} changed, "
                f"{self.unchanged} unchanged)",
                ["run", "cycles", "dram", "races", "verified"],
                rows or [["(no changes above threshold)", "", "", "", ""]],
            )
        ]
        if self.only_before:
            out.append(f"only in BEFORE: {len(self.only_before)} record(s)")
        if self.only_after:
            out.append(f"only in AFTER: {len(self.only_after)} record(s)")
        return "\n".join(out)


def compare(before_path: str, after_path: str,
            threshold: float = 0.02) -> Comparison:
    """Diff two run stores; *threshold* is the relative cycle/DRAM change
    below which a record counts as unchanged (detection changes always
    count)."""
    before = _load(before_path)
    after = _load(after_path)
    changed = []
    unchanged = 0
    for key in sorted(set(before) & set(after)):
        b, a = before[key], after[key]
        cycles_delta = abs(a["cycles"] - b["cycles"]) / max(1, b["cycles"])
        dram_b = b["dram_data"] + b["dram_metadata"]
        dram_a = a["dram_data"] + a["dram_metadata"]
        dram_delta = abs(dram_a - dram_b) / max(1, dram_b)
        detection_changed = (
            a["unique_races"] != b["unique_races"]
            or a["verified"] != b["verified"]
            or a.get("race_types") != b.get("race_types")
        )
        if detection_changed or cycles_delta > threshold or dram_delta > threshold:
            changed.append((key, b, a))
        else:
            unchanged += 1
    return Comparison(
        changed=changed,
        only_before=sorted(set(before) - set(after)),
        only_after=sorted(set(after) - set(before)),
        unchanged=unchanged,
    )


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print("usage: scord-compare BEFORE.jsonl AFTER.jsonl",
              file=sys.stderr)
        return 2
    result = compare(args[0], args[1])
    print(result.render())
    return 1 if result.any_difference else 0


if __name__ == "__main__":
    sys.exit(main())
