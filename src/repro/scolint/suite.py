"""Lint one suite target.

Because :class:`~repro.scolint.driver.LintGPU` mirrors the host API of
the real :class:`~repro.engine.gpu.GPU`, :func:`lint_target` runs
:meth:`repro.targets.Target.launch`, the launcher every simulating tool
uses, on the abstract interpreter and returns a :class:`LintResult`
instead of a simulated machine.  Targets are named and grouped by
:mod:`repro.targets`.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

from repro.scolint.analysis import analyze
from repro.scolint.driver import LintGPU
from repro.scolint.model import Finding
from repro.scord.races import RaceType


@dataclasses.dataclass
class LintResult:
    """The static verdict for one lintable target."""

    target: str                   #: e.g. "micro:fence_missing_cross_block"
    kind: str                     #: "micro" | "app" | "litmus"
    findings: List[Finding]
    ops: int                      #: operations interpreted
    launches: int

    @property
    def clean(self) -> bool:
        return not self.findings

    @property
    def race_types(self) -> frozenset:
        """Race types flagged, comparable to dynamic ScoRD verdicts."""
        return frozenset(f.race_type for f in self.findings)

    def render(self) -> str:
        head = (f"{self.target}: "
                + ("clean" if self.clean
                   else f"{len(self.findings)} finding(s)")
                + f" ({self.launches} launch(es), {self.ops} ops)")
        body = [finding.render() for finding in
                sorted(self.findings, key=lambda f: (f.rule, f.array or ""))]
        return "\n".join([head] + body)

    def as_dict(self) -> dict:
        return {
            "target": self.target,
            "kind": self.kind,
            "clean": self.clean,
            "launches": self.launches,
            "ops": self.ops,
            "findings": [
                finding.as_dict() for finding in
                sorted(self.findings,
                       key=lambda f: (f.rule, f.array or "", f.kernel))
            ],
        }


def lint_target(target) -> LintResult:
    """Lint one :class:`repro.targets.Target` on a fresh LintGPU."""
    gpu = LintGPU()
    target.launch(gpu)
    return LintResult(
        target=target.label,
        kind=target.kind,
        findings=analyze(gpu),
        ops=sum(trace.ops for trace in gpu.traces),
        launches=len(gpu.traces),
    )


def record_lint_metrics(telemetry, results: Sequence[LintResult]) -> None:
    """Publish ``lint.*`` counters for a batch of results."""
    metrics = telemetry.metrics
    metrics.counter("lint.targets").inc(len(results))
    metrics.counter("lint.findings").inc(
        sum(len(r.findings) for r in results)
    )
    metrics.counter("lint.clean_targets").inc(
        sum(1 for r in results if r.clean)
    )
    metrics.counter("lint.ops_interpreted").inc(
        sum(r.ops for r in results)
    )
    for race_type in RaceType:
        hits = sum(
            1 for r in results for f in r.findings
            if f.race_type is race_type
        )
        if hits:
            metrics.counter(
                "lint.findings_by_type", type=race_type.value
            ).inc(hits)
