"""Cross-validate static lint verdicts against dynamic ScoRD.

Every case in the suite (the ``suite`` group of :mod:`repro.targets`:
32 microbenchmarks, 7 applications in their race-free default
configuration, and each application once per injected race flag) is
judged twice:

* **statically**, by linting the kernels with :mod:`repro.scolint`
  (schedule-independent, no simulation);
* **dynamically**, by simulating under the ScoRD detector and reading
  the race report.

A racey case is *caught* when the verdict contains at least one of the
case's expected race types (the Table VI criterion); a race-free case
is a *false positive* when the verdict is non-empty.  The harness emits
a per-race-type precision/recall table — the artifact EXPERIMENTS.md
embeds — where the interesting deltas live: schedules the simulator
never drives (dynamic misses lint catches) versus dynamic evidence
static rules over-approximate.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.arch.detector_config import DetectorConfig
from repro.common.errors import ReproError
from repro.experiments.tables import render_table
from repro.scolint.suite import lint_target
from repro.scord.races import RaceType


@dataclasses.dataclass
class CrossCase:
    """One suite configuration judged statically and dynamically."""

    target: str                       #: a repro.targets label
    kind: str                         #: "micro" | "app"
    racey: bool
    expected_types: FrozenSet[RaceType]
    static_types: FrozenSet[RaceType] = frozenset()
    dynamic_types: FrozenSet[RaceType] = frozenset()
    static_findings: int = 0
    static_error: Optional[str] = None
    dynamic_error: Optional[str] = None

    @property
    def static_caught(self) -> bool:
        return bool(self.expected_types & self.static_types)

    @property
    def dynamic_caught(self) -> bool:
        return bool(self.expected_types & self.dynamic_types)

    @property
    def static_fp(self) -> bool:
        return not self.racey and bool(self.static_types)

    @property
    def dynamic_fp(self) -> bool:
        return not self.racey and bool(self.dynamic_types)

    def as_dict(self) -> dict:
        return {
            "target": self.target,
            "kind": self.kind,
            "racey": self.racey,
            "expected": sorted(t.value for t in self.expected_types),
            "static": sorted(t.value for t in self.static_types),
            "dynamic": sorted(t.value for t in self.dynamic_types),
            "static_caught": self.static_caught,
            "dynamic_caught": self.dynamic_caught,
            "static_error": self.static_error,
            "dynamic_error": self.dynamic_error,
        }


@dataclasses.dataclass
class CrossValidation:
    """All cases plus the derived precision/recall summary."""

    cases: List[CrossCase]
    dynamic_ran: bool

    # -- aggregation ---------------------------------------------------
    def _racey(self) -> List[CrossCase]:
        return [c for c in self.cases if c.racey]

    def _clean(self) -> List[CrossCase]:
        return [c for c in self.cases if not c.racey]

    def recall(self, dynamic: bool = False) -> float:
        racey = self._racey()
        if not racey:
            return 1.0
        caught = sum(
            1 for c in racey
            if (c.dynamic_caught if dynamic else c.static_caught)
        )
        return caught / len(racey)

    def false_positives(self, dynamic: bool = False) -> List[CrossCase]:
        return [
            c for c in self._clean()
            if (c.dynamic_fp if dynamic else c.static_fp)
        ]

    def precision(self, dynamic: bool = False) -> float:
        """Case-level: flagged-and-racey over flagged."""
        if dynamic:
            flagged = [c for c in self.cases if c.dynamic_types]
            true = [c for c in flagged if c.racey and c.dynamic_caught]
        else:
            flagged = [c for c in self.cases if c.static_types]
            true = [c for c in flagged if c.racey and c.static_caught]
        if not flagged:
            return 1.0
        return len(true) / len(flagged)

    def by_type(self) -> Dict[RaceType, Dict[str, int]]:
        """Per race type: injected / static-caught / dynamic-caught."""
        table: Dict[RaceType, Dict[str, int]] = {}
        for race_type in RaceType:
            injected = [
                c for c in self._racey() if race_type in c.expected_types
            ]
            if not injected:
                continue
            table[race_type] = {
                "injected": len(injected),
                "static": sum(
                    1 for c in injected if race_type in c.static_types
                ),
                "dynamic": sum(
                    1 for c in injected if race_type in c.dynamic_types
                ),
            }
        return table

    def disagreements(self) -> List[CrossCase]:
        """Racey cases one side catches and the other misses."""
        if not self.dynamic_ran:
            return []
        return [
            c for c in self._racey()
            if c.static_caught != c.dynamic_caught
        ]

    # -- rendering -------------------------------------------------------
    def render(self) -> str:
        rows = []
        for race_type, counts in sorted(
            self.by_type().items(), key=lambda kv: kv[0].value
        ):
            rows.append([
                race_type.value,
                counts["injected"],
                counts["static"],
                counts["dynamic"] if self.dynamic_ran else "-",
            ])
        racey = self._racey()
        clean = self._clean()
        rows.append([
            "TOTAL (cases)",
            len(racey),
            sum(1 for c in racey if c.static_caught),
            (sum(1 for c in racey if c.dynamic_caught)
             if self.dynamic_ran else "-"),
        ])
        note_lines = [
            f"race-free configurations: {len(clean)}; "
            f"static false positives: {len(self.false_positives())}"
            + (f"; dynamic false positives: "
               f"{len(self.false_positives(dynamic=True))}"
               if self.dynamic_ran else ""),
            f"static recall {self.recall():.2%}, "
            f"precision {self.precision():.2%}"
            + (f"; dynamic recall {self.recall(dynamic=True):.2%}, "
               f"precision {self.precision(dynamic=True):.2%}"
               if self.dynamic_ran else ""),
        ]
        for case in self.disagreements():
            side = "static-only" if case.static_caught else "dynamic-only"
            note_lines.append(
                f"disagreement: {case.target} caught {side} "
                f"(expected {sorted(t.value for t in case.expected_types)})"
            )
        return render_table(
            "Lint cross-validation: static vs dynamic, per race type",
            ["race type", "injected", "static caught", "dynamic caught"],
            rows,
            note="\n".join(note_lines),
        )

    def as_dict(self) -> dict:
        return {
            "schema": "scolint-crossval/v1",
            "dynamic_ran": self.dynamic_ran,
            "cases": [case.as_dict() for case in self.cases],
            "summary": {
                "racey_cases": len(self._racey()),
                "clean_cases": len(self._clean()),
                "static_recall": self.recall(),
                "static_precision": self.precision(),
                "static_false_positives": len(self.false_positives()),
                "dynamic_recall": (
                    self.recall(dynamic=True) if self.dynamic_ran else None
                ),
                "dynamic_precision": (
                    self.precision(dynamic=True) if self.dynamic_ran
                    else None
                ),
            },
        }


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def _run_static(case: CrossCase, target) -> None:
    try:
        result = lint_target(target)
    except ReproError as err:
        case.static_error = err.describe()
        return
    case.static_types = result.race_types
    case.static_findings = len(result.findings)


def _run_dynamic(case: CrossCase, target, runner) -> None:
    from repro.engine.gpu import GPU

    try:
        if target.kind == "app":
            record = runner.run(
                target.subject, detector="scord", races=target.flags
            )
            case.dynamic_types = frozenset(record.race_types)
            return
        gpu = GPU(detector_config=DetectorConfig.scord())
        target.launch(gpu)
    except ReproError as err:
        case.dynamic_error = err.describe()
        return
    case.dynamic_types = frozenset(
        record.race_type for record in gpu.races.unique_races
    )


def cross_validate(
    runner=None,
    cases: Optional[Sequence[CrossCase]] = None,
    progress=None,
) -> CrossValidation:
    """Judge the whole suite statically and, given a runner, dynamically.

    *runner* is a :class:`repro.experiments.runner.Runner`: application
    simulations flow through it (a campaign that also renders Table VI
    pays for them once), and microbenchmarks simulate on a fresh GPU.
    Without one the simulations are skipped: the static columns and
    false-positive accounting still populate, dynamic columns render as
    ``-``.  *progress* is an optional ``callable(str)`` narrating case
    completion (the CLI passes a printer).
    """
    from repro.targets import expand_targets, parse_target

    if cases is None:
        cases = [
            CrossCase(
                target=target.label,
                kind=target.kind,
                racey=target.racy,
                expected_types=target.expected_types,
            )
            for target in expand_targets(["suite"])
        ]
    dynamic = runner is not None
    todo = list(cases)
    for case in todo:
        target = parse_target(case.target)
        _run_static(case, target)
        if dynamic:
            _run_dynamic(case, target, runner)
        if progress is not None:
            bits = [f"static={sorted(t.value for t in case.static_types) or 'clean'}"]
            if dynamic:
                bits.append(
                    f"dynamic={sorted(t.value for t in case.dynamic_types) or 'clean'}"
                )
            progress(f"{case.target}: " + " ".join(bits))
    return CrossValidation(cases=todo, dynamic_ran=dynamic)
