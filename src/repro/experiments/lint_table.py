"""Exhibit: static-vs-dynamic cross-validation of the scolint rules.

Not a table from the paper — this validates the repository's own static
analyzer (:mod:`repro.scolint`) against the dynamic detector on every
suite configuration, and is the regeneration source for the
"Lint cross-validation" table in EXPERIMENTS.md:

    scord-experiments lint_table

Dynamic application simulations flow through the shared memoizing
runner, so a campaign that also renders Table VI pays for them once.
"""

from __future__ import annotations

from repro.experiments.runner import Runner
from repro.scolint.crossval import CrossValidation, cross_validate


def run_lint_table(runner: Runner) -> CrossValidation:
    progress = print if getattr(runner, "verbose", False) else None
    return cross_validate(runner, progress=progress)
