"""Table VI — number of races caught by each detector configuration.

For every application race flag (26 across the seven applications) and
every racey microbenchmark (18), the workload runs once under the base
design without metadata caching and once under full ScoRD; a race counts
as *caught* when a race of the expected type is reported.  The paper finds
44/44 for the base design and 43/44 for ScoRD — the single false negative
caused by aliasing in the direct-mapped metadata cache.  At the default
input seed this reproduction records 44/44 for both; its aliasing miss
shows on another input (UTS ``block_exch_global`` at seed 10).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from repro.common.errors import ReproError, error_code
from repro.experiments.runner import Runner
from repro.experiments.tables import failed_cell, render_table
from repro.arch.detector_config import DetectorConfig
from repro.scor.apps.registry import ALL_APPS
from repro.scor.micro.base import run_micro
from repro.scor.micro.registry import racey_micros


@dataclasses.dataclass
class Table6Detail:
    """Per-race outcome (one planted race = one row of the detail view)."""

    workload: str
    race: str
    expected: str
    base_caught: bool
    scord_caught: bool


@dataclasses.dataclass
class Table6Row:
    workload: str
    present: int
    base_caught: int
    scord_caught: int
    scord_missed: Tuple[str, ...] = ()
    details: Tuple[Table6Detail, ...] = ()


@dataclasses.dataclass
class Table6Result:
    rows: List[Table6Row]

    @property
    def totals(self) -> Table6Row:
        return Table6Row(
            "Total",
            sum(r.present for r in self.rows),
            sum(r.base_caught for r in self.rows),
            sum(r.scord_caught for r in self.rows),
        )

    def render(self) -> str:
        table_rows = [
            (r.workload, r.present, r.base_caught, r.scord_caught)
            for r in self.rows
        ]
        t = self.totals
        table_rows.append((t.workload, t.present, t.base_caught, t.scord_caught))
        missed = [
            f"{r.workload}:{flag}" for r in self.rows for flag in r.scord_missed
        ]
        note = (
            "Paper: 44 present, 44 caught by the base design, 43 by ScoRD "
            "(one metadata-cache aliasing false negative)."
        )
        if missed:
            note += f"\nScoRD misses in this run: {', '.join(missed)}"
        return render_table(
            "Table VI: races caught by detector configuration",
            ["workload", "present", "base w/o caching", "ScoRD"],
            table_rows,
            note=note,
        )

    def render_detail(self) -> str:
        """Per-race listing of all 44 planted races and their outcomes."""
        rows = []
        for row in self.rows:
            for detail in row.details:
                rows.append(
                    (
                        detail.workload,
                        detail.race,
                        detail.expected,
                        "yes" if detail.base_caught else "NO",
                        "yes" if detail.scord_caught else "NO",
                    )
                )
        return render_table(
            "Table VI (detail): every planted race",
            ["workload", "race", "expected type(s)", "base", "ScoRD"],
            rows,
        )


def _caught(record, expected_types) -> bool:
    return bool(expected_types & record.race_types)


def run_table6(runner: Runner) -> Table6Result:
    rows: List[Table6Row] = []
    for app_cls in ALL_APPS:
        base_caught = 0
        scord_caught = 0
        missed: List[str] = []
        details: List[Table6Detail] = []
        for flag in app_cls.RACE_FLAGS:
            expected = ",".join(sorted(t.value for t in flag.expected_types))
            try:
                base = runner.run(app_cls, detector="base", races=(flag.name,))
                scord = runner.run(
                    app_cls, detector="scord", races=(flag.name,)
                )
            except ReproError as err:
                # A failed run can't catch its race: count it missed but
                # keep the rest of the table.
                missed.append(f"{flag.name}[{failed_cell(error_code(err))}]")
                details.append(
                    Table6Detail(app_cls.name, flag.name, expected,
                                 False, False)
                )
                continue
            base_ok = _caught(base, flag.expected_types)
            scord_ok = _caught(scord, flag.expected_types)
            base_caught += base_ok
            scord_caught += scord_ok
            if not scord_ok:
                missed.append(flag.name)
            details.append(
                Table6Detail(
                    app_cls.name,
                    flag.name,
                    expected,
                    base_ok,
                    scord_ok,
                )
            )
        rows.append(
            Table6Row(
                app_cls.name,
                app_cls.races_present(),
                base_caught,
                scord_caught,
                tuple(missed),
                tuple(details),
            )
        )

    base_micro = 0
    scord_micro = 0
    micro_missed: List[str] = []
    micro_details: List[Table6Detail] = []
    micros = racey_micros()
    for micro in micros:
        try:
            base_gpu = run_micro(
                micro, detector_config=DetectorConfig.base_no_cache()
            )
            scord_gpu = run_micro(micro, detector_config=DetectorConfig.scord())
        except ReproError as err:
            micro_missed.append(
                f"{micro.name}[{failed_cell(error_code(err))}]"
            )
            micro_details.append(
                Table6Detail(
                    "micro",
                    micro.name,
                    ",".join(sorted(t.value for t in micro.expected_types)),
                    False,
                    False,
                )
            )
            continue
        base_types = {r.race_type for r in base_gpu.races.unique_races}
        scord_types = {r.race_type for r in scord_gpu.races.unique_races}
        base_ok = bool(micro.expected_types & base_types)
        scord_ok = bool(micro.expected_types & scord_types)
        base_micro += base_ok
        scord_micro += scord_ok
        if not scord_ok:
            micro_missed.append(micro.name)
        micro_details.append(
            Table6Detail(
                "micro",
                micro.name,
                ",".join(sorted(t.value for t in micro.expected_types)),
                base_ok,
                scord_ok,
            )
        )
    rows.append(
        Table6Row(
            "Microbenchmarks",
            len(micros),
            base_micro,
            scord_micro,
            tuple(micro_missed),
            tuple(micro_details),
        )
    )
    return Table6Result(rows)
