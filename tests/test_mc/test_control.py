"""ScheduleControl unit tests: recording, replay, divergence, sleep.

The control is the engine-facing half of the explorer: these tests pin
the contract the DPOR layer depends on — the fair controlled schedule
IS the native schedule, a recorded decision vector replays to the
bit-identical execution, and drifted vectors fail loudly instead of
silently exploring a different program.
"""

from __future__ import annotations

import os

import pytest

from repro.arch.config import GPUConfig
from repro.arch.detector_config import DetectorConfig
from repro.common.errors import ConfigError
from repro.engine.gpu import GPU
from repro.experiments.runner import DETECTORS
from repro.fuzz import FuzzProgram, load_corpus, run_program
from repro.fuzz.oracles import dynamic_verdict
from repro.mc import FAIR, ScheduleControl, ScheduleDivergence
from repro.mc.targets import target_from_program
from repro.scor.micro.base import run_micro
from repro.scor.micro.registry import micro_by_name
from repro.telemetry import FlightConfig, Telemetry, TraceConfig


def _telemetry(mode: str = "full") -> Telemetry:
    return Telemetry(
        TraceConfig(enabled=False), flight=FlightConfig(mode=mode)
    )


def _run(name: str, control: ScheduleControl, mode: str = "full"):
    return run_micro(
        micro_by_name(name),
        detector_config=DetectorConfig.scord(),
        telemetry=_telemetry(mode),
        schedule_control=control,
    )


def _stream(control: ScheduleControl):
    """The observable execution: who stepped, touching what."""
    return [
        (step.uid, step.block, step.accesses, step.barriers, step.races)
        for step in control.steps
    ]


@pytest.mark.parametrize(
    "name", ["fence_missing_cross_block", "fence_device_cross_block"]
)
def test_fair_control_matches_uncontrolled_run(name):
    """Schedule #0 is the engine's native schedule: same detector
    verdict with and without the control attached."""
    control = ScheduleControl()
    controlled = _run(name, control)
    uncontrolled = run_micro(
        micro_by_name(name),
        detector_config=DetectorConfig.scord(),
        telemetry=_telemetry(),
    )
    controlled_types = sorted(
        r.race_type.value for r in controlled.races.unique_races
    )
    uncontrolled_types = sorted(
        r.race_type.value for r in uncontrolled.races.unique_races
    )
    assert controlled_types == uncontrolled_types
    assert control.steps, "control observed no steps"


CORPUS_ANCHORS = load_corpus(
    os.path.join(os.path.dirname(__file__), os.pardir, "corpus", "fuzz")
)


@pytest.mark.parametrize(
    "entry", [entry for _, entry in CORPUS_ANCHORS],
    ids=[entry["digest"][:12] for _, entry in CORPUS_ANCHORS],
)
def test_fair_control_matches_the_dynamic_oracle_on_fuzz_programs(entry):
    """mc's schedule #0 of a fuzz program is the native schedule the
    dynamic oracle's one ScoRD run watches: the same race types and
    the same cycle count, with neither oracle reading the other."""
    program = FuzzProgram.from_dict(entry["program"])
    controlled = target_from_program(program).execute(ScheduleControl())
    uncontrolled = GPU(
        config=GPUConfig.scaled_default(),
        detector_config=DETECTORS["scord"],
    )
    run_program(uncontrolled, program)
    controlled_types = sorted(
        {r.race_type.value for r in controlled.races.unique_races}
    )
    assert controlled_types == dynamic_verdict(program)["types"]
    assert controlled.total_cycles == uncontrolled.total_cycles


def test_control_records_consistent_choices():
    control = ScheduleControl()
    _run("fence_missing_cross_block", control)
    assert len(control.decisions) == len(control.choices)
    assert control.choices, "a cross-block micro must have choice points"
    for choice, decision in zip(control.choices, control.decisions):
        assert choice.chosen == decision
        assert choice.chosen in choice.enabled
        assert len(choice.enabled) >= 2
        assert list(choice.enabled) == sorted(choice.enabled)
        assert 0 <= choice.step_index < len(control.steps)
    indices = [c.step_index for c in control.choices]
    assert indices == sorted(indices)


@pytest.mark.parametrize(
    "name", ["fence_missing_cross_block", "atomic_block_scope_cross_block"]
)
def test_replaying_recorded_decisions_reproduces_the_execution(name):
    recorded = ScheduleControl()
    _run(name, recorded)
    replayed = ScheduleControl(prefix=recorded.decisions)
    _run(name, replayed)
    assert replayed.decisions == recorded.decisions
    assert _stream(replayed) == _stream(recorded)


def test_replaying_a_truncated_prefix_extends_with_fair_policy():
    recorded = ScheduleControl()
    _run("fence_missing_cross_block", recorded)
    assert len(recorded.decisions) >= 2
    half = len(recorded.decisions) // 2
    replayed = ScheduleControl(prefix=recorded.decisions[:half])
    _run("fence_missing_cross_block", replayed)
    # FAIR past the prefix is exactly what the recorder did, so the
    # full vector comes out identical.
    assert replayed.decisions == recorded.decisions


def test_divergent_prefix_raises_instead_of_drifting():
    control = ScheduleControl(prefix=[999999])
    with pytest.raises(ScheduleDivergence):
        _run("fence_missing_cross_block", control)


def test_ring_mode_flight_recorder_is_rejected():
    control = ScheduleControl()
    with pytest.raises(ConfigError):
        _run("fence_missing_cross_block", control, mode="ring")


def test_block_policy_prefers_its_block():
    control = ScheduleControl(policy=("block", 1))
    _run("fence_device_cross_block", control)
    by_uid = {step.uid: step.block for step in control.steps}
    for choice in control.choices:
        # Whenever a block-1 warp was runnable, one was chosen.
        chosen_block = by_uid[choice.chosen]
        enabled_blocks = {by_uid[uid] for uid in choice.enabled}
        if 1 in enabled_blocks:
            assert chosen_block == 1


def test_sleep_seed_avoided_until_woken():
    """A seeded sleeper is scheduled only once no non-sleeping warp is
    runnable (or a conflicting step wakes it)."""
    recorded = ScheduleControl()
    _run("fence_device_cross_block", recorded)
    first = recorded.choices[0]
    sleeper = first.chosen
    seed = {sleeper: (("st", 0xDEAD0000, None),)}
    control = ScheduleControl(sleep_seed=seed)
    _run("fence_device_cross_block", control)
    assert control.choices, "expected choice points"
    first_choice = control.choices[0]
    if sleeper in first_choice.enabled and len(first_choice.enabled) > 1:
        assert first_choice.chosen != sleeper
        assert sleeper in first_choice.sleeping
