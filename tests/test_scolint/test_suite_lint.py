"""Whole-suite lint verdicts: every micro and app, races on and off.

The microbenchmark sweep and the app defaults run in tier 1; the
per-flag application sweep and the dynamic cross-validation column are
tier 2 (they simulate or interpret hundreds of thousands of ops).
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import Runner
from repro.scolint import lint_target, record_lint_metrics
from repro.scolint.crossval import CrossCase, CrossValidation, cross_validate
from repro.scor.apps.registry import ALL_APPS
from repro.scor.micro.registry import ALL_MICROS, micro_by_name
from repro.scord.races import RaceType
from repro.targets import expand_targets, parse_target

APP_FLAG_CASES = [
    (app_cls, flag)
    for app_cls in ALL_APPS
    for flag in app_cls.RACE_FLAGS
]


@pytest.mark.parametrize(
    "micro", ALL_MICROS, ids=[m.name for m in ALL_MICROS]
)
def test_micro_static_verdict(micro):
    result = lint_target(parse_target(f"micro:{micro.name}"))
    if micro.racey:
        assert micro.expected_types & result.race_types, (
            f"{micro.name}: expected one of "
            f"{sorted(t.value for t in micro.expected_types)}, statically "
            f"got {sorted(t.value for t in result.race_types)}"
        )
    else:
        assert result.clean, (
            f"{micro.name} is race-free but lint reported "
            f"{[f.render() for f in result.findings]}"
        )


@pytest.mark.parametrize(
    "app_cls", ALL_APPS, ids=[a.name for a in ALL_APPS]
)
def test_app_default_is_clean(app_cls):
    result = lint_target(parse_target(f"app:{app_cls.name}"))
    assert result.clean, (
        f"{app_cls.name} default configuration is race-free but lint "
        f"reported {[f.render() for f in result.findings]}"
    )


def test_uts_schedule_miss_is_caught_statically():
    """UTS ``block_exch_global``, the race dynamic ScoRD can lose.

    On some inputs (seed 10) dynamic ScoRD loses this race to
    metadata-cache aliasing (the global-stack lock words share one
    metadata group and evict each other's entries — see EXPERIMENTS.md).
    The static rule (SL-A1) models no detector hardware and flags it
    unconditionally.
    """
    result = lint_target(parse_target("app:UTS+block_exch_global"))
    assert RaceType.SCOPED_ATOMIC in result.race_types
    rules = {finding.rule for finding in result.findings}
    assert "SL-A1" in rules


@pytest.mark.tier2
@pytest.mark.parametrize(
    "app_cls,flag", APP_FLAG_CASES,
    ids=[f"{a.name}-{f.name}" for a, f in APP_FLAG_CASES],
)
def test_app_flag_is_caught_statically(app_cls, flag):
    result = lint_target(parse_target(f"app:{app_cls.name}+{flag.name}"))
    assert flag.expected_types & result.race_types, (
        f"{app_cls.name}+{flag.name}: expected one of "
        f"{sorted(t.value for t in flag.expected_types)}, statically got "
        f"{sorted(t.value for t in result.race_types)}"
    )


def test_litmus_lint_runs_clean_of_crashes():
    for target in expand_targets(["litmus"]):
        result = lint_target(target)  # informational: must not crash
        assert result.launches == 1


# ----------------------------------------------------------------------
# A group's lint + telemetry counters
# ----------------------------------------------------------------------
def test_lint_suite_micros_with_telemetry_counters():
    from repro.telemetry import Telemetry

    telemetry = Telemetry.disabled()
    results = [lint_target(t) for t in expand_targets(["micros"])]
    record_lint_metrics(telemetry, results)
    assert len(results) == len(ALL_MICROS)
    samples = dict(
        (name, value)
        for name, kind, value in telemetry.metrics.samples()
        if name.startswith("lint.")
    )
    assert samples["lint.targets"] == len(ALL_MICROS)
    assert samples["lint.clean_targets"] == sum(
        1 for m in ALL_MICROS if not m.racey
    )
    assert samples["lint.findings"] >= sum(1 for m in ALL_MICROS if m.racey)
    assert any("lint.findings_by_type" in name for name in samples)


# ----------------------------------------------------------------------
# Cross-validation harness
# ----------------------------------------------------------------------
def test_crossval_static_only_on_micros():
    cases = [
        CrossCase(
            target=f"micro:{m.name}", kind="micro", racey=m.racey,
            expected_types=m.expected_types,
        )
        for m in ALL_MICROS
    ]
    validation = cross_validate(cases=cases)
    assert validation.recall() == 1.0
    assert validation.false_positives() == []
    assert validation.disagreements() == []  # undefined without dynamic
    text = validation.render()
    assert "static recall 100.00%" in text
    assert "dynamic caught" in text


def test_crossval_dynamic_column_on_two_micros():
    wanted = ("fence_missing_cross_block", "fence_device_cross_block")
    cases = [
        CrossCase(
            target=f"micro:{m.name}", kind="micro", racey=m.racey,
            expected_types=m.expected_types,
        )
        for m in (micro_by_name(name) for name in wanted)
    ]
    validation = cross_validate(Runner(verbose=False), cases=cases)
    racey, clean = validation.cases
    assert racey.static_caught and racey.dynamic_caught
    assert not clean.static_fp and not clean.dynamic_fp
    payload = validation.as_dict()
    assert payload["summary"]["static_recall"] == 1.0
    assert payload["summary"]["dynamic_recall"] == 1.0


def test_crossval_aggregation_math():
    def case(racey, expected, static, dynamic):
        return CrossCase(
            target="synthetic", kind="micro", racey=racey,
            expected_types=frozenset(expected),
            static_types=frozenset(static),
            dynamic_types=frozenset(dynamic),
        )

    mdf = RaceType.MISSING_DEVICE_FENCE
    sa = RaceType.SCOPED_ATOMIC
    validation = CrossValidation(
        cases=[
            case(True, {mdf}, {mdf}, {mdf}),    # both catch
            case(True, {sa}, {sa}, set()),      # static-only
            case(True, {sa}, set(), {sa}),      # dynamic-only
            case(False, set(), set(), set()),   # clean, agreed
            case(False, set(), {mdf}, set()),   # static FP
        ],
        dynamic_ran=True,
    )
    assert validation.recall() == pytest.approx(2 / 3)
    assert validation.recall(dynamic=True) == pytest.approx(2 / 3)
    assert len(validation.false_positives()) == 1
    assert len(validation.false_positives(dynamic=True)) == 0
    assert validation.precision() == pytest.approx(2 / 3)
    assert validation.precision(dynamic=True) == 1.0
    assert len(validation.disagreements()) == 2
    by_type = validation.by_type()
    assert by_type[sa] == {"injected": 2, "static": 1, "dynamic": 1}
    assert by_type[mdf] == {"injected": 1, "static": 1, "dynamic": 1}


@pytest.mark.tier2
def test_crossval_full_static_meets_acceptance_bar():
    """The ISSUE's acceptance criterion: >=90% of injected races flagged
    statically with zero false positives on race-free configurations."""
    validation = cross_validate()
    assert validation.recall() >= 0.90
    assert validation.false_positives() == []
    # the headline case rides along
    uts = [c for c in validation.cases
           if c.target == "app:UTS+block_exch_global"]
    assert uts and uts[0].static_caught
