"""Explorer integration tests on the anchor micros.

The three anchors cover the verdict space: an injected cross-block
race that the fair schedule already exposes (``proven_racy`` with a
replayable witness), a correctly-fenced twin whose frontier drains
(``proven_race_free``), and budget/truncation paths that must abstain
(``budget_exhausted``) rather than over-claim.
"""

from __future__ import annotations

import json
import os

import pytest

import repro.mc.explorer as explorer_mod
from repro.mc import (
    MC_REPORT_SCHEMA,
    canonical_report,
    explore,
    load_checkpoint,
    replay_witness,
    resolve_target,
)
from repro.mc.explorer import CHECKPOINT_SCHEMA

RACY_ANCHOR = "micro:fence_missing_cross_block"
CLEAN_ANCHOR = "micro:fence_device_cross_block"


def test_racy_anchor_is_proven_racy_with_a_witness():
    report = explore(resolve_target(RACY_ANCHOR), budget=16)
    assert report["schema"] == MC_REPORT_SCHEMA
    assert report["verdict"] == "proven_racy"
    assert report["racy"] and report["expected_racy"]
    assert report["race_types"] == ["missing-device-fence"]
    witness = report["witness"]
    assert witness is not None
    assert witness["source"] == "fair"
    assert witness["schedule_index"] == 0


def test_clean_anchor_is_proven_race_free_with_prune_ratio_above_one():
    report = explore(resolve_target(CLEAN_ANCHOR), budget=64)
    assert report["verdict"] == "proven_race_free"
    assert not report["racy"]
    assert report["race_types"] == []
    assert report["witness"] is None
    # The acceptance bar: DPOR explored measurably fewer schedules
    # than the naive interleaving count.
    assert report["prune_ratio"] > 1
    assert report["schedules_explored"] < report["naive_schedules"]
    assert not report["frontier_truncated"]


def test_budget_one_abstains():
    report = explore(resolve_target(CLEAN_ANCHOR), budget=1, probes=False)
    assert report["verdict"] == "budget_exhausted"
    assert report["schedules_explored"] == 1


def test_exhaustive_mode_keeps_exploring_past_the_first_race():
    stopped = explore(resolve_target(RACY_ANCHOR), budget=8)
    exhaustive = explore(
        resolve_target(RACY_ANCHOR), budget=8, stop_on_race=False
    )
    assert stopped["schedules_explored"] == 1
    assert exhaustive["schedules_explored"] > 1
    assert exhaustive["racy"]


def test_truncated_frontier_downgrades_proven_race_free(monkeypatch):
    monkeypatch.setattr(explorer_mod, "MAX_NODES", 1)
    report = explore(resolve_target(CLEAN_ANCHOR), budget=64)
    assert report["frontier_truncated"]
    assert not report["racy"]
    assert report["verdict"] == "budget_exhausted"


def test_witness_replays_to_the_proven_race():
    target = resolve_target(RACY_ANCHOR)
    report = explore(target, budget=16)
    gpu = replay_witness(target, report["witness"])
    replayed = sorted(
        r.race_type.value for r in gpu.races.unique_races
    )
    assert "missing-device-fence" in replayed


def test_witness_is_truncated_after_the_racing_step():
    """The stored decision vector stops at the racing neighborhood —
    replaying it (FAIR past the prefix) still reproduces the race, and
    it is never longer than the full schedule's vector."""
    target = resolve_target(RACY_ANCHOR)
    report = explore(target, budget=16)
    witness = report["witness"]
    full = explore(resolve_target(CLEAN_ANCHOR), budget=1, probes=False)
    assert len(witness["decisions"]) <= full["choice_points"]
    gpu = replay_witness(target, witness)
    assert gpu.races.unique_races


def test_replay_without_witness_runs_the_fair_schedule():
    target = resolve_target(CLEAN_ANCHOR)
    gpu = replay_witness(target, None)
    assert not gpu.races.unique_races


def test_detector_none_sees_no_races():
    report = explore(
        resolve_target(RACY_ANCHOR, detector="none"), budget=2
    )
    assert not report["racy"]
    assert report["detector"] == "none"
    assert report["verdict"] == "budget_exhausted"


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------
def test_checkpoint_written_and_resume_is_bit_identical(tmp_path):
    path = str(tmp_path / "anchor.mc.json")
    target = resolve_target(CLEAN_ANCHOR)
    first = explore(target, budget=64, checkpoint_path=path)
    assert os.path.exists(path)
    with open(path) as handle:
        payload = json.load(handle)
    assert payload["schema"] == CHECKPOINT_SCHEMA
    assert payload["target"] == CLEAN_ANCHOR
    assert payload["finish_reason"] == "exhausted"

    resumed = explore(
        target, budget=64, checkpoint_path=path, resume=True
    )
    assert canonical_report(resumed) == canonical_report(first)
    # A finished checkpoint resumes without re-running any schedule.
    assert resumed["schedules_explored"] == first["schedules_explored"]


def test_resume_with_larger_budget_extends_exploration(tmp_path):
    path = str(tmp_path / "anchor.mc.json")
    target = resolve_target(CLEAN_ANCHOR)
    small = explore(target, budget=2, checkpoint_path=path)
    assert small["verdict"] == "budget_exhausted"

    extended = explore(
        target, budget=64, checkpoint_path=path, resume=True
    )
    fresh = explore(target, budget=64)
    assert extended["verdict"] == "proven_race_free"
    assert canonical_report(extended) == canonical_report(fresh)

    # Race and exhausted verdicts are final: resuming the now-drained
    # checkpoint with an even larger budget re-runs nothing.
    again = explore(
        target, budget=128, checkpoint_path=path, resume=True
    )
    assert again["schedules_explored"] == fresh["schedules_explored"]
    assert again["verdict"] == "proven_race_free"


def test_the_checkpoint_after_a_run_that_ends_the_exploration_is_final(
    tmp_path, monkeypatch
):
    # A racing run under stop_on_race gets no DPOR analysis, so the
    # checkpoint written right after it must already be final: a later
    # resume must not explore from its missing backtrack sets.
    finishes = []
    save = explorer_mod.save_checkpoint

    def spy(path, state):
        finishes.append(state.finish_reason)
        save(path, state)

    monkeypatch.setattr(explorer_mod, "save_checkpoint", spy)
    path = str(tmp_path / "anchor.mc.json")
    explore(resolve_target(RACY_ANCHOR), budget=16, checkpoint_path=path)
    assert finishes == ["race", "race"]


def test_corrupt_checkpoint_is_quarantined(tmp_path, capsys):
    path = str(tmp_path / "anchor.mc.json")
    with open(path, "w") as handle:
        handle.write("{not json")
    assert load_checkpoint(path, CLEAN_ANCHOR) is None
    assert not os.path.exists(path)
    assert os.path.exists(path + ".corrupt")
    assert "quarantined" in capsys.readouterr().err


def test_checkpoint_for_a_different_target_is_rejected(tmp_path):
    path = str(tmp_path / "anchor.mc.json")
    explore(resolve_target(CLEAN_ANCHOR), budget=2, checkpoint_path=path)
    assert load_checkpoint(path, RACY_ANCHOR) is None
    assert os.path.exists(path + ".corrupt")


def test_telemetry_counters_accumulate():
    from repro.telemetry import Telemetry

    telemetry = Telemetry.disabled()
    explore(resolve_target(RACY_ANCHOR), budget=4, telemetry=telemetry)
    snapshot = telemetry.metrics.snapshot()
    assert snapshot["mc.targets"] == 1
    assert snapshot["mc.schedules.explored"] >= 1
    assert snapshot["mc.verdict.proven_racy"] == 1
    assert "mc.prune_ratio" in snapshot


def test_a_capped_naive_estimate_reports_no_prune_ratio():
    """A naive count that hit NAIVE_CAP is a floor, so a ratio over it
    would measure the cap: the report, the text and the gauge say so."""
    from repro.fuzz import Actor, FuzzProgram, Phase, PhaseKind
    from repro.mc import render_report
    from repro.mc.targets import target_from_program
    from repro.telemetry import Telemetry

    program = FuzzProgram(2, 2, (
        Phase(PhaseKind.HANDOFF, Actor(0, 0), Actor(1, 0)),
        Phase(PhaseKind.MUTEX, Actor(0, 1), Actor(1, 1)),
        Phase(PhaseKind.ATOMICS, Actor(1, 0), Actor(0, 1)),
    ))
    telemetry = Telemetry.disabled()
    report = explore(
        target_from_program(program), budget=2, telemetry=telemetry
    )
    assert report["naive_capped"]
    assert report["prune_ratio"] is None
    assert "(prune ratio n/a)" in render_report(report)
    snapshot = telemetry.metrics.snapshot()
    assert snapshot["mc.targets"] == 1
    assert "mc.prune_ratio" not in snapshot
