"""Resolve explorable targets: micros, apps, litmus tests, fuzz programs.

A target bundles "how to run one controlled execution" with its ground
truth so the explorer and the proof tests share one resolution path.
Target strings follow the suite catalog's grammar (:mod:`repro.targets`:
``micro:<name>``, ``app:<NAME>[+flag...]``, ``litmus:<name>``); fuzz
programs are wrapped directly via :func:`target_from_program`.

Every execution builds a fresh GPU (stateless model checking: one
schedule, one simulation) with tracing off and the flight recorder in
``full`` mode — the access stream is the explorer's trace observer.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, FrozenSet, Optional

from repro.arch.config import GPUConfig
from repro.arch.detector_config import DetectorConfig
from repro.common.errors import ConfigError

#: per-schedule judges.  "scord" is the paper's cached detector;
#: "base" is the uncached base design — the judge for races the cached
#: metadata layout can alias away (the Table VI mechanism, seen on UTS
#: ``block_exch_global`` at input seed 10: the miss is a cache artifact,
#: not a schedule gap, so proving the race needs the reference judge);
#: "none" runs detection machinery with no checks (schedule-space
#: measurement).
_DETECTOR_BUILDERS = {
    "scord": DetectorConfig.scord,
    "base": DetectorConfig.base_no_cache,
    "none": DetectorConfig.none,
}


@dataclasses.dataclass
class McTarget:
    """One explorable configuration."""

    label: str
    execute: Callable            #: (ScheduleControl) -> GPU
    racy: Optional[bool]         #: ground truth; None when unknown
    expected_types: FrozenSet[str] = frozenset()
    probe_blocks: int = 2        #: greedy-probe policies to try
    detector: str = "scord"
    observe: Optional[Callable] = None   #: (GPU) -> hashable outcome


def _mc_telemetry():
    from repro.telemetry import FlightConfig, Telemetry, TraceConfig

    return Telemetry(
        TraceConfig(enabled=False), flight=FlightConfig(mode="full")
    )


def _detector_config(label: str) -> DetectorConfig:
    try:
        return _DETECTOR_BUILDERS[label]()
    except KeyError:
        raise ConfigError(
            f"unknown mc detector {label!r}: "
            f"use one of {', '.join(sorted(_DETECTOR_BUILDERS))}"
        ) from None


def resolve_target(
    spec: str,
    detector: str = "scord",
    gpu_config: Optional[GPUConfig] = None,
) -> McTarget:
    """Resolve a :mod:`repro.targets` string into an explorable target.

    A litmus test runs at delay point zero: the explorer subsumes the
    delay sweep, so distinct interleavings come from decision vectors
    rather than injected compute stalls.  Its observed register tuple is
    collected per schedule into the report's ``outcomes``.
    """
    from repro.engine.gpu import GPU
    from repro.targets import parse_target

    target = parse_target(spec)
    detector_config = _detector_config(detector)
    config = (
        gpu_config if gpu_config is not None else GPUConfig.scaled_default()
    )
    observed_arrays = {}

    def execute(control):
        gpu = GPU(
            config=config,
            detector_config=detector_config,
            telemetry=_mc_telemetry(),
            schedule_control=control,
        )
        out = target.launch(gpu)
        if out is not None:
            observed_arrays[id(gpu)] = out
        return gpu

    def observe(gpu):
        out = observed_arrays.pop(id(gpu))
        return tuple(gpu.read(out, i) for i in range(target.subject.observed))

    return McTarget(
        label=target.label,
        execute=execute,
        racy=target.racy,
        expected_types=frozenset(t.value for t in target.expected_types),
        probe_blocks=target.grid(config.threads_per_warp),
        detector=detector,
        observe=observe if target.kind == "litmus" else None,
    )


def target_from_program(
    program, detector: str = "scord", guard=None
) -> McTarget:
    """Wrap a fuzz program (known ground truth) as an mc target; every
    schedule's GPU runs under *guard* when one is given."""
    from repro.fuzz.oracles import _config
    from repro.fuzz.program import program_digest, run_program
    from repro.engine.gpu import GPU

    detector_config = _detector_config(detector)

    def execute(control):
        gpu = GPU(
            config=_config(),
            detector_config=detector_config,
            telemetry=_mc_telemetry(),
            schedule_control=control,
            guard=guard,
        )
        run_program(gpu, program)
        return gpu

    return McTarget(
        label=f"fuzz:{program_digest(program)[:12]}",
        execute=execute,
        racy=program.racy,
        expected_types=frozenset(
            t.value for t in program.expected_types()
        ),
        probe_blocks=program.grid,
        detector=detector,
    )
