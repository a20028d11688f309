"""ScoRD-lint: a static scope-misuse analyzer over the kernel DSL.

The dynamic detector only flags a scoped race when the buggy access
pair actually reaches the memory system under the simulated schedule.
This package gives a schedule-independent second opinion: it abstractly
interprets each kernel generator over a small thread set (no timing, no
caches, no detector), extracts per-kernel access summaries, and applies
the paper's race taxonomy as static rules (see ``docs/scolint.md`` for
the rule catalog).

Quickstart::

    from repro.scolint import lint_micro, lint_app
    from repro.scor.micro.registry import micro_by_name
    from repro.scor.apps.registry import app_by_name

    result = lint_micro(micro_by_name("fence_missing_cross_block"))
    for finding in result.findings:
        print(finding.render())

    result = lint_app(app_by_name("UTS"), races=("block_exch_global",))

or from the shell: ``scord-experiments lint`` (see ``--help``).
"""

from repro.scolint.analysis import analyze, analyze_launch
from repro.scolint.driver import LaunchTrace, LintGPU
from repro.scolint.model import (
    RULE_FOR_TYPE,
    RULES,
    Finding,
    LintError,
    Site,
)
from repro.scolint.report import as_report, render_json, render_text
from repro.scolint.suite import (
    LintResult,
    lint_app,
    lint_litmus,
    lint_micro,
    lint_suite,
    lint_target,
    record_lint_metrics,
)

__all__ = [
    "RULES",
    "RULE_FOR_TYPE",
    "Finding",
    "LintError",
    "LintGPU",
    "LaunchTrace",
    "LintResult",
    "Site",
    "analyze",
    "analyze_launch",
    "as_report",
    "lint_app",
    "lint_litmus",
    "lint_micro",
    "lint_suite",
    "lint_target",
    "record_lint_metrics",
    "render_json",
    "render_text",
]
