"""Shared, memoizing simulation runner for the experiment harnesses.

An experiment asks for "application X under detector config Y on GPU
config Z" and receives a :class:`RunRecord`.  Identical requests (e.g.
Fig. 8's ScoRD runs and Fig. 9's DRAM breakdown of the same runs) are
simulated once per process.
"""

from __future__ import annotations

import contextlib
import dataclasses
import sys
import time
from typing import Dict, FrozenSet, List, Optional, Tuple, Type

from repro.arch.config import GPUConfig, MemoryPreset, memory_preset
from repro.arch.detector_config import DetectorConfig, DetectorMode
from repro.common.errors import StoreError
from repro.scord.races import RaceType
from repro.scor.apps.base import DEFAULT_SEED, ScorApp, run_app

if False:  # typing-only, avoids a runtime import cycle with store.py
    from repro.experiments.store import RunStore


# ----------------------------------------------------------------------
# Detector configuration labels used across the evaluation
# ----------------------------------------------------------------------
DETECTORS: Dict[str, DetectorConfig] = {
    "none": DetectorConfig.none(),
    "base": DetectorConfig.base_no_cache(),  # 4B, no metadata caching
    "base8": DetectorConfig.base_no_cache(granularity_bytes=8),
    "base16": DetectorConfig.base_no_cache(granularity_bytes=16),
    "scord": DetectorConfig.scord(),
    "scord-nolhd": dataclasses.replace(DetectorConfig.scord(), model_lhd=False),
    "scord-nonoc": dataclasses.replace(
        DetectorConfig.scord(), model_noc=False, packet_overhead_bytes=0
    ),
    "scord-nomd": dataclasses.replace(DetectorConfig.scord(), model_md=False),
}

MEMORY_PRESETS: Tuple[str, ...] = ("low", "default", "high")


def gpu_config_for(preset: str) -> GPUConfig:
    base = GPUConfig.scaled_default()
    return memory_preset(base, MemoryPreset(preset))


@dataclasses.dataclass
class RunRecord:
    """Everything the exhibits need from one simulation."""

    app: str
    detector: str
    memory: str
    races_enabled: FrozenSet[str]
    cycles: int
    dram_data: int
    dram_metadata: int
    unique_races: int
    race_types: FrozenSet[RaceType]
    race_keys: FrozenSet[Tuple[RaceType, Tuple[str, int]]]
    verified: bool
    wall_seconds: float
    seed: int = DEFAULT_SEED

    @property
    def dram_total(self) -> int:
        return self.dram_data + self.dram_metadata


# ----------------------------------------------------------------------
# The miss step shared with the unit scheduler (experiments.parallel)
# ----------------------------------------------------------------------
def read_cache(cache, spec, capture: bool) -> Optional[RunRecord]:
    """The disk cache's record for *spec*, or ``None``.

    With flight capture on the cache is written but never read: a unit
    is captured only when it simulates, so every unit of a forensics
    run must simulate to get its capture and, if racy, its bundles.
    """
    if cache is None or capture:
        return None
    return cache.get_spec(spec)


def file_record(record: RunRecord, cache, store) -> None:
    """Keep one freshly executed record: cache write, then store append.

    A failed cache write never fails the unit (a read-only or full cache
    costs a later re-simulation); a failed store append does, because
    the store is the campaign's record log and must be complete.
    """
    if cache is not None:
        try:
            cache.put(record)
        except (OSError, StoreError):
            pass
    if store is not None:
        store.append(record)


class Runner:
    """Memoizing simulation front-end for the experiments.

    With a :class:`~repro.experiments.parallel.ResultCache` attached,
    units answered by an earlier run are read from disk instead of
    re-simulated: rerunning a killed campaign over the same cache
    resumes it.  A :class:`~repro.experiments.store.RunStore` is the
    campaign's record log: every unit the runner answers, fresh or
    cached, is durably appended to it.
    """

    def __init__(
        self,
        verbose: bool = True,
        store: "Optional[RunStore]" = None,
        guard_factory=None,
        result_cache=None,
        telemetry=None,
        flight=None,
        forensics_dir=None,
    ):
        self._cache: Dict[Tuple, RunRecord] = {}
        self.verbose = verbose
        self._store = store
        #: optional :class:`~repro.telemetry.FlightConfig` — when set,
        #: every unit simulates under a *fresh* flight recorder (so one
        #: unit's events never bleed into another's trace slices) and
        #: detected races get forensic bundles
        self.flight_config = flight
        #: directory forensic bundles are written to, one subdir per unit
        self.forensics_dir = forensics_dir
        #: per-unit forensics summaries (unit label, bundle count, types)
        self.forensics_units: List[dict] = []
        if flight is not None and telemetry is None:
            # Flight capture needs a telemetry bundle to ride on; build a
            # tracing-off one rather than silently dropping the capture.
            from repro.telemetry import Telemetry, TraceConfig

            telemetry = Telemetry(TraceConfig(enabled=False), flight=flight)
        #: optional :class:`repro.telemetry.Telemetry` bundle — unit
        #: spans, per-source latency histograms, and campaign totals
        self.telemetry = telemetry
        #: simulations actually executed by this process (cache misses)
        self.fresh_runs = 0
        #: records served by the content-addressed result cache
        self.cached_runs = 0
        #: optional () -> Watchdog factory guarding in-process runs
        self.guard_factory = guard_factory
        #: optional :class:`repro.experiments.parallel.ResultCache`
        self.result_cache = result_cache

    def run(
        self,
        app_cls: Type[ScorApp],
        detector: str = "scord",
        memory: str = "default",
        races: Tuple[str, ...] = (),
        seed: int = DEFAULT_SEED,
    ) -> RunRecord:
        from repro.experiments.campaign import RunSpec

        spec = RunSpec(app_cls.name, detector, memory, tuple(races), seed)
        cached = self._cache.get(spec.key())
        if cached is not None:
            return cached
        started = time.time()
        record, source = self._answer(app_cls, spec)
        self._fold(spec, record, source, time.time() - started)
        return record

    def _fold(
        self, spec, record: RunRecord, source: str, seconds: float
    ) -> None:
        """Keep one answered unit: the path every unit takes, whether
        simulated in-process or on the pool, fresh or a cache hit, asked
        for by an exhibit or by the parallel prefetch."""
        self._cache[spec.key()] = record
        if source == "cache":
            self.cached_runs += 1
            if self._store is not None:
                # the store logs every unit the campaign answered
                self._store.append(record)
        else:
            self.fresh_runs += 1
        if self.telemetry is None:
            return
        metrics = self.telemetry.metrics
        metrics.counter("exp.units.total").inc()
        metrics.counter(f"exp.units.{source}").inc()
        metrics.histogram("exp.unit.seconds", source=source).observe(seconds)
        metrics.counter("exp.sim.cycles").inc(record.cycles)
        metrics.counter("exp.sim.dram.data").inc(record.dram_data)
        metrics.counter("exp.sim.dram.metadata").inc(record.dram_metadata)
        metrics.counter("exp.sim.races.unique").inc(record.unique_races)

    def _answer(self, app_cls: Type[ScorApp], spec) -> Tuple[RunRecord, str]:
        """``(record, "cache" | "run")`` for one memo miss: the unit
        scheduler's miss step, with the simulation run in-process."""
        hit = read_cache(
            self.result_cache, spec, capture=self.flight_config is not None
        )
        if hit is not None:
            return hit, "cache"
        self._announce(spec)
        span = contextlib.nullcontext()
        if self.telemetry is not None:
            span = self.telemetry.tracer.span(
                f"unit:{spec.describe()}", cat="exp"
            )
        with span:
            record = self._simulate(
                app_cls, spec.detector, spec.memory, spec.races, spec.seed
            )
        file_record(record, self.result_cache, self._store)
        return record, "run"

    def _announce(self, spec) -> None:
        if self.verbose:
            flags = f" races={sorted(spec.races)}" if spec.races else ""
            tag = f" seed={spec.seed}" if spec.seed != DEFAULT_SEED else ""
            print(
                f"  [run] {spec.app} detector={spec.detector} "
                f"memory={spec.memory}{flags}{tag}",
                file=sys.stderr,
                flush=True,
            )

    # -- overridable by the campaign layer -----------------------------
    def _simulate(
        self,
        app_cls: Type[ScorApp],
        detector: str,
        memory: str,
        races: Tuple[str, ...],
        seed: int,
    ) -> RunRecord:
        """Execute one simulation in-process and build its record."""
        started = time.time()
        app = app_cls(races=races, seed=seed)
        guard = self.guard_factory() if self.guard_factory else None
        # With tracing on, also sample the timing fabric so the trace
        # carries utilization counter tracks alongside the kernel spans.
        tracing = self.telemetry is not None and self.telemetry.enabled
        if self.flight_config is not None:
            # Fresh recorder per unit: cycles restart at 0 every
            # simulation, so a shared recorder would interleave units
            # into nonsense trace slices.
            from repro.telemetry.flight import FlightRecorder

            self.telemetry.flight = FlightRecorder(self.flight_config)
        gpu = run_app(
            app,
            detector_config=DETECTORS[detector],
            gpu_config=gpu_config_for(memory),
            guard=guard,
            telemetry=self.telemetry,
            sample_interval=2000 if tracing else 0,
        )
        if self.flight_config is not None:
            self._collect_forensics(
                gpu, app_cls.name, detector, memory, races, seed
            )
        try:
            verified = app.verify(gpu)
        except Exception:
            verified = False
        dram_data, dram_metadata = gpu.dram_accesses()
        return RunRecord(
            app=app_cls.name,
            detector=detector,
            memory=memory,
            races_enabled=frozenset(races),
            cycles=gpu.total_cycles,
            dram_data=dram_data,
            dram_metadata=dram_metadata,
            unique_races=gpu.races.unique_count,
            race_types=frozenset(
                record.race_type for record in gpu.races.unique_races
            ),
            race_keys=frozenset(
                record.key for record in gpu.races.unique_races
            ),
            verified=verified,
            wall_seconds=time.time() - started,
            seed=seed,
        )

    # ------------------------------------------------------------------
    # Forensics (flight capture)
    # ------------------------------------------------------------------
    @staticmethod
    def unit_label(
        app: str, detector: str, memory: str,
        races: Tuple[str, ...], seed: int,
    ) -> str:
        """Filesystem-safe identity of one unit (bundle subdirectory)."""
        label = f"{app}.{detector}.{memory}"
        if races:
            label += "." + "+".join(sorted(races))
        if seed != DEFAULT_SEED:
            label += f".s{seed}"
        return label

    def _collect_forensics(
        self,
        gpu,
        app: str,
        detector: str,
        memory: str,
        races: Tuple[str, ...],
        seed: int,
    ) -> None:
        """Bundle this unit's detected races; fold capture telemetry."""
        import os

        from repro.forensics.bundle import bundles_for_gpu, write_bundles

        capture = getattr(gpu, "flight_capture", None)
        if capture is None:
            return
        label = self.unit_label(app, detector, memory, races, seed)
        bundles = bundles_for_gpu(gpu, source=f"unit:{label}")
        entry = {
            "unit": label,
            "app": app,
            "detector": detector,
            "memory": memory,
            "races_enabled": sorted(races),
            "seed": seed,
            "bundles": len(bundles),
            "race_types": sorted(
                {bundle["race"]["type"] for bundle in bundles}
            ),
            "rule_agreement": sum(
                1 for bundle in bundles if bundle["hb"]["rule_agrees"]
            ),
            "dir": None,
        }
        if self.forensics_dir and bundles:
            unit_dir = os.path.join(self.forensics_dir, label)
            write_bundles(bundles, unit_dir)
            entry["dir"] = unit_dir
        self.forensics_units.append(entry)
        if self.telemetry is not None:
            metrics = self.telemetry.metrics
            recorder = self.telemetry.flight
            metrics.counter("flight.units").inc()
            metrics.counter("flight.total.events").inc(recorder.recorded)
            metrics.counter("flight.total.dropped").inc(recorder.dropped)
            metrics.counter("forensics.bundles").inc(len(bundles))
            metrics.counter("forensics.rule_agreement").inc(
                entry["rule_agreement"]
            )

    def _all_forensics_units(self) -> List[dict]:
        """Every unit summary this runner knows about (overridable)."""
        return list(self.forensics_units)

    def forensics_section(self) -> Optional[dict]:
        """The campaign manifest's ``forensics`` block (None when off)."""
        if self.flight_config is None:
            return None
        by_type: Dict[str, int] = {}
        bundles = 0
        agreement = 0
        units = self._all_forensics_units()
        for entry in units:
            bundles += entry["bundles"]
            agreement += entry["rule_agreement"]
            for race_type in entry["race_types"]:
                by_type[race_type] = by_type.get(race_type, 0) + 1
        return {
            "dir": self.forensics_dir,
            "flight_mode": self.flight_config.mode,
            "units_captured": len(units),
            "bundles": bundles,
            "rule_agreement": agreement,
            "units_by_race_type": dict(sorted(by_type.items())),
            "units": units,
        }

    def runs_done(self) -> int:
        return len(self._cache)
