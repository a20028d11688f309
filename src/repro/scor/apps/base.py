"""Application scaffolding for the ScoR suite.

Every application:

* is **correctly synchronized by default** and passes :meth:`verify`
  against a host-computed reference;
* exposes **race flags** — each omits or mis-scopes exactly one
  synchronization operation, introducing one unique race (the per-app flag
  counts match Table VI: MM 4, RED 2, R110 2, GCOL 6, GCON 5, 1DC 1,
  UTS 6 — 26 in total);
* declares, per flag, the race types ScoRD is expected to report, which the
  Table VI harness checks flag-by-flag.

Racey configurations are engineered to stay *terminating* (bounded spins,
clamped indices), because ScoRD's whole point is to keep executing and
accumulate races rather than crash.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from repro.arch.config import GPUConfig
from repro.arch.detector_config import DetectorConfig
from repro.common.errors import ConfigError
from repro.engine.gpu import GPU
from repro.scord.races import RaceType

#: the input seed every application is built at unless a caller asks
#: for another (Table VI, the campaigns, the service and every tool that
#: resolves a ``repro.targets`` string)
DEFAULT_SEED = 1


@dataclasses.dataclass(frozen=True)
class RaceFlag:
    """One configurable synchronization bug."""

    name: str
    description: str
    expected_types: FrozenSet[RaceType]


class ScorApp:
    """Base class for the seven ScoR applications."""

    #: short name used in tables ("MM", "RED", ...)
    name: str = ""
    #: the paper's input description (Table II), for documentation
    paper_input: str = ""
    #: this reproduction's scaled input description
    scaled_input: str = ""
    #: the app's race flags, in declaration order
    RACE_FLAGS: Tuple[RaceFlag, ...] = ()

    def __init__(
        self, races: Iterable[str] = (), seed: int = DEFAULT_SEED
    ):
        known = {flag.name for flag in self.RACE_FLAGS}
        self.races = frozenset(races)
        unknown = self.races - known
        if unknown:
            raise ConfigError(
                f"{self.name}: unknown race flag(s) {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        self.seed = seed

    # -- subclass interface ------------------------------------------------
    def run(self, gpu: GPU) -> None:
        """Allocate inputs and launch the kernels on *gpu*."""
        raise NotImplementedError

    def verify(self, gpu: GPU) -> bool:
        """Check device results against the host reference.

        Only meaningful for the default (no race flags) configuration;
        racey configurations may or may not corrupt the output.
        """
        raise NotImplementedError

    # -- conveniences --------------------------------------------------
    def enabled(self, flag_name: str) -> bool:
        return flag_name in self.races

    @classmethod
    def flag_named(cls, name: str) -> RaceFlag:
        for flag in cls.RACE_FLAGS:
            if flag.name == name:
                return flag
        raise KeyError(f"{cls.name}: no race flag {name!r}")

    @classmethod
    def races_present(cls) -> int:
        """Number of unique configurable races (the Table VI column)."""
        return len(cls.RACE_FLAGS)


def run_app(
    app: ScorApp,
    detector_config: Optional[DetectorConfig] = None,
    gpu_config: Optional[GPUConfig] = None,
    capacity_bytes: int = 256 * 1024,
    guard=None,
    telemetry=None,
    sample_interval: int = 0,
    schedule_control=None,
) -> GPU:
    """Run one application configuration on a fresh GPU.

    *guard* is an optional :class:`repro.common.guard.Watchdog` enforcing
    a wall-clock deadline / event budget across the app's launches.
    *telemetry* is an optional :class:`repro.telemetry.Telemetry` bundle;
    when given, launches are traced as kernel spans and the GPU's stats
    feed the metrics registry.
    """
    config = gpu_config if gpu_config is not None else GPUConfig.scaled_default()
    dconf = detector_config if detector_config is not None else DetectorConfig.scord()
    gpu = GPU(
        config=config,
        detector_config=dconf,
        capacity_bytes=capacity_bytes,
        guard=guard,
        telemetry=telemetry,
        sample_interval=sample_interval,
        schedule_control=schedule_control,
    )
    app.run(gpu)
    return gpu


def detected_flag_report(app: ScorApp, gpu: GPU) -> Dict[str, bool]:
    """For each *enabled* flag: did ScoRD report a race of an expected type?"""
    detected_types = {record.race_type for record in gpu.races.unique_races}
    report = {}
    for flag in app.RACE_FLAGS:
        if flag.name in app.races:
            report[flag.name] = bool(flag.expected_types & detected_types)
    return report
