"""Lint adapters for everything in the repository that owns a kernel.

Because :class:`~repro.scolint.driver.LintGPU` mirrors the host API of
the real :class:`~repro.engine.gpu.GPU`, each adapter below runs the
same launcher the simulating runner uses (``launch_micro``,
``ScorApp.run``, ``launch_litmus``) on the abstract interpreter and
returns a :class:`LintResult` instead of a simulated machine.  Targets
are named and grouped by :mod:`repro.targets`.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Union

from repro.arch.config import GPUConfig
from repro.litmus.framework import LitmusTest, launch_litmus
from repro.scolint.analysis import analyze
from repro.scolint.driver import LintGPU
from repro.scolint.model import Finding
from repro.scor.apps.base import ScorApp
from repro.scor.micro.base import Micro, launch_micro
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


def _lint(
    target: str, kind: str, launch, gpu_config: Optional[GPUConfig]
) -> LintResult:
    """Run *launch* on a fresh LintGPU and classify what it recorded."""
    gpu = LintGPU(config=gpu_config)
    launch(gpu)
    findings = analyze(gpu)
    return LintResult(
        target=target,
        kind=kind,
        findings=findings,
        ops=sum(trace.ops for trace in gpu.traces),
        launches=len(gpu.traces),
    )


def lint_target(target, gpu_config: Optional[GPUConfig] = None) -> LintResult:
    """Lint one :class:`repro.targets.Target`."""
    if target.kind == "app":
        # Applications lint at lint_app's seed 1, which the lint reports
        # are pinned to, not at each app's own default seed (GCON 2,
        # UTS 10) that the simulating tools use.
        return lint_app(target.subject, races=target.flags,
                        gpu_config=gpu_config)
    return _lint(target.label, target.kind, target.launch, gpu_config)


def lint_micro(
    micro: Micro, gpu_config: Optional[GPUConfig] = None
) -> LintResult:
    return _lint(f"micro:{micro.name}", "micro",
                 lambda gpu: launch_micro(gpu, micro), gpu_config)


def lint_app(
    app: Union[ScorApp, type],
    races: Sequence[str] = (),
    seed: int = 1,
    gpu_config: Optional[GPUConfig] = None,
) -> LintResult:
    if isinstance(app, type):
        app = app(races=races, seed=seed)
    suffix = "+".join(sorted(app.races))
    target = f"app:{app.name}" + (f"+{suffix}" if suffix else "")
    return _lint(target, "app", app.run, gpu_config)


def lint_litmus(
    test: LitmusTest, gpu_config: Optional[GPUConfig] = None
) -> LintResult:
    """Lint *test* at the zero-delay grid point: delays inject no
    synchronization, so one point carries every ordering fact the rules
    consult."""
    return _lint(f"litmus:{test.name}", "litmus",
                 lambda gpu: launch_litmus(gpu, test), gpu_config)


def lint_suite(
    micros: bool = True,
    apps: bool = True,
    litmus: bool = False,
    race_flags: bool = True,
    gpu_config: Optional[GPUConfig] = None,
    telemetry=None,
) -> List[LintResult]:
    """Lint the registered suite; ``lint.*`` counters land in *telemetry*.

    With ``race_flags`` each application is additionally linted once per
    race flag (the injected-bug configurations the cross-validation
    compares against dynamic ScoRD).  Litmus programs intentionally
    exhibit weak behaviours, so they are opt-in and their findings are
    informational.
    """
    from repro.targets import expand_targets

    groups = [group for group, wanted in (
        ("micros", micros), ("apps", apps), ("litmus", litmus)
    ) if wanted]
    results = [
        lint_target(target, gpu_config=gpu_config)
        for target in expand_targets(groups)
        if race_flags or not target.flags
    ]
    if telemetry is not None:
        record_lint_metrics(telemetry, results)
    return results


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
