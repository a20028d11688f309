"""Campaign units, failures, and the runner over an isolated executor.

The in-process :class:`~repro.experiments.runner.Runner` is fast but
fragile — one hung kernel wedges the whole ``scord-experiments all``
campaign and one crash loses it.  This module holds the pieces every
executor shares:

* :class:`RunSpec` — one simulation request, serializable across the
  worker boundary, and its sibling :class:`ProgramSpec` — one fuzz
  program under one oracle run (one dynamic ScoRD run, or a bounded
  ``mc`` exploration);
* :class:`RunFailure` — a run that failed permanently (retries
  exhausted), which exhibits render as ``FAILED(reason)`` cells and the
  CLI collects into a failure manifest;
* :class:`CampaignRunner` — a :class:`Runner` whose memo misses go to
  the unit scheduler over an executor; in a campaign that is the
  supervised worker pool
  (:class:`~repro.experiments.supervisor.PoolSupervisor`), which brings
  crash isolation, unit timeouts, and retry with backoff;
* :class:`InProcessExecutor` — the serial, watchdog-guarded floor the
  pool degrades to when it cannot keep workers alive.

Completed records are durably appended to the
:class:`~repro.experiments.store.RunStore` **by the parent, never a
worker**: a worker that is SIGKILLed, OOM-killed, or desyncs mid-unit
can therefore never tear a line in the shared JSONL store — the blast
radius of a worker fault is exactly one in-flight unit.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from typing import ClassVar, List, Optional, Tuple, Type

from repro.common.errors import (
    ConfigError,
    ReproError,
    RunFailedError,
    RunTimeout,
    WatchdogTimeout,
    error_code,
)
from repro.common.guard import GuardConfig, Watchdog
from repro.experiments.runner import Runner, RunRecord
from repro.experiments.store import RunStore
from repro.scor.apps.base import DEFAULT_SEED, ScorApp

SPEC_SCHEMA = 1

#: the scheduler client a campaign's units queue under
CAMPAIGN_CLIENT = "campaign"

#: events between watchdog checks in a program unit.  A fuzz program's
#: launches run a few hundred to a few thousand events, below the
#: campaign default of 4096, so a coarser cadence would never beat.
PROGRAM_CHECK_INTERVAL = 256

#: retryable failure categories; deterministic misconfigurations are not
_NO_RETRY_CODES = frozenset({"config", "kernel"})


def _unit_failure_code(err: BaseException) -> str:
    """The failure category of a unit that ran under a unit timeout.

    Executors arm the simulator's watchdog from the unit timeout, so a
    watchdog expiry is that timeout firing from inside the simulation.
    """
    code = error_code(err)
    return RunTimeout.code if code == WatchdogTimeout.code else code


# ----------------------------------------------------------------------
# Specs and failures
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class RunSpec:
    """One simulation request, serializable across the worker boundary."""

    app: str
    detector: str = "scord"
    memory: str = "default"
    races: Tuple[str, ...] = ()
    seed: int = DEFAULT_SEED

    def describe(self) -> str:
        flags = f" races={sorted(self.races)}" if self.races else ""
        tag = f" seed={self.seed}" if self.seed != DEFAULT_SEED else ""
        return f"{self.app}/{self.detector}/{self.memory}{flags}{tag}"

    def key(self):
        """The runner-cache identity of this spec."""
        from repro.experiments.store import run_key

        return run_key(
            self.app, self.detector, self.memory, self.races, self.seed
        )

    def to_dict(self) -> dict:
        return {
            "schema": SPEC_SCHEMA,
            "app": self.app,
            "detector": self.detector,
            "memory": self.memory,
            "races": sorted(self.races),
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(payload: dict) -> "RunSpec":
        if payload.get("schema") != SPEC_SCHEMA:
            raise ConfigError(
                f"unsupported spec schema {payload.get('schema')!r}"
            )
        return RunSpec(
            app=payload["app"],
            detector=payload.get("detector", "scord"),
            memory=payload.get("memory", "default"),
            races=tuple(payload.get("races", ())),
            seed=int(payload.get("seed", DEFAULT_SEED)),
        )


@dataclasses.dataclass(frozen=True)
class ProgramSpec:
    """One fuzz program and one oracle run, serializable like RunSpec.

    ``oracle`` is ``"dynamic"`` (one ScoRD run on the native schedule)
    or ``"mc"`` (bounded DPOR at ``budget`` schedules).  The answer is the
    oracle's verdict dict, crashes folded in (:func:`repro.fuzz.oracles.
    unit_verdict`).  Fault rules and failure entries see every program
    unit as the app ``program``, with no seed.
    """

    program: object  #: a :class:`repro.fuzz.program.FuzzProgram`
    oracle: str = "dynamic"
    detector: str = "scord"
    budget: int = 0

    app: ClassVar[str] = "program"
    memory: ClassVar[str] = "default"
    races: ClassVar[Tuple[str, ...]] = ()
    seed: ClassVar[Optional[int]] = None

    def __post_init__(self):
        if self.oracle not in ("dynamic", "mc"):
            raise ConfigError(f"unknown program oracle {self.oracle!r}")

    def describe(self) -> str:
        from repro.fuzz.program import program_digest

        run = f".mc.b{self.budget}" if self.oracle == "mc" else ""
        return (
            f"program:{program_digest(self.program)[:12]}"
            f"/{self.detector}{run}"
        )

    def key(self):
        """The poison-count identity of this unit."""
        return ("program", self.describe())

    def to_dict(self) -> dict:
        return {
            "schema": SPEC_SCHEMA,
            "kind": "program",
            "program": self.program.to_dict(),
            "oracle": self.oracle,
            "detector": self.detector,
            "budget": self.budget,
        }

    @staticmethod
    def from_dict(payload: dict) -> "ProgramSpec":
        from repro.fuzz.program import FuzzProgram

        if payload.get("schema") != SPEC_SCHEMA:
            raise ConfigError(
                f"unsupported spec schema {payload.get('schema')!r}"
            )
        return ProgramSpec(
            program=FuzzProgram.from_dict(payload["program"]),
            oracle=payload.get("oracle", "dynamic"),
            detector=payload.get("detector", "scord"),
            budget=int(payload.get("budget", 0)),
        )


def unit_from_dict(payload: dict):
    """A :class:`RunSpec` or :class:`ProgramSpec`, by the ``kind`` key."""
    if payload.get("kind") == "program":
        return ProgramSpec.from_dict(payload)
    return RunSpec.from_dict(payload)


@dataclasses.dataclass
class RunFailure:
    """A run that failed permanently (all retries exhausted)."""

    spec: RunSpec  #: or a ProgramSpec
    category: str  # e.g. run-timeout, worker-crash, simulation
    message: str
    attempts: int

    def to_dict(self) -> dict:
        return {
            "app": self.spec.app,
            "detector": self.spec.detector,
            "memory": self.spec.memory,
            "seed": self.spec.seed,
            "races": sorted(self.spec.races),
            "category": self.category,
            "message": self.message,
            "attempts": self.attempts,
        }


def _worker_env() -> dict:
    """The parent's environment with this package importable."""
    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_dir + os.pathsep + existing if existing else src_dir
    )
    return env


# ----------------------------------------------------------------------
# The resilient Runner
# ----------------------------------------------------------------------
class CampaignRunner(Runner):
    """A :class:`Runner` whose memo misses run on a unit scheduler.

    Drop-in for the exhibits: same ``run()`` signature, same memoizing
    cache, but every miss goes, as the ``campaign`` client, to the
    :class:`~repro.experiments.parallel.UnitScheduler` (*jobs*
    dispatchers over *executor*) that the prefetch also feeds.  A hung
    or crashed simulation costs one run (retried, then marked failed)
    instead of the campaign.  Permanent failures are collected in
    :attr:`failures` for the CLI's manifest.

    *executor* is a :class:`~repro.experiments.supervisor.PoolSupervisor`;
    flight capture happens worker-side, so the supervisor is built with
    the campaign's flight config and collects the per-unit forensics
    summaries the workers report back.
    """

    def __init__(
        self,
        executor,
        verbose: bool = True,
        store: Optional[RunStore] = None,
        telemetry=None,
        flight=None,
        forensics_dir=None,
        result_cache=None,
        jobs: int = 1,
    ):
        from repro.experiments.parallel import UnitScheduler

        # Telemetry note: kernel-level spans only exist for in-process
        # simulation; isolated workers run in their own interpreter, so
        # this runner's traces stop at the unit span (which still times
        # the worker round-trip).
        super().__init__(
            verbose=verbose, store=store,
            result_cache=result_cache, telemetry=telemetry, flight=flight,
            forensics_dir=forensics_dir,
        )
        self.executor = executor
        self.scheduler = UnitScheduler(
            executor, threads=max(1, jobs), cache=result_cache,
            store=store, telemetry=telemetry,
        )
        self.failures: List[RunFailure] = []
        #: units a parallel prefetch already failed permanently; keyed by
        #: run_key, consulted so exhibits do not pay the retries twice
        self.prefailed: dict = {}

    def _all_forensics_units(self) -> List[dict]:
        return self.executor.all_forensics_units()

    def _answer(self, app_cls: Type[ScorApp], spec: RunSpec):
        prior = self.prefailed.get(spec.key())
        if prior is not None:
            raise RunFailedError(
                f"{spec.describe()} already failed during the parallel "
                f"prefetch: {prior.category}: {prior.message}",
                failure=prior,
            )
        started = time.time()
        future, source = self.scheduler.submit(CAMPAIGN_CLIENT, spec)
        if source != "cache":
            self._announce(spec)
        try:
            record = future.result()
        except RunFailedError as err:
            if err.failure is not None:
                self._fail(err.failure, time.time() - started)
            raise
        return record, "cache" if source == "cache" else "run"

    def _fail(self, failure: RunFailure, seconds: float) -> None:
        """Keep one permanently failed unit for the manifest; its latency
        joins the ``failed`` source of ``exp.unit.seconds``."""
        self.failures.append(failure)
        if self.telemetry is not None:
            self.telemetry.metrics.histogram(
                "exp.unit.seconds", source="failed"
            ).observe(seconds)


# ----------------------------------------------------------------------
# The in-process fallback executor
# ----------------------------------------------------------------------
class InProcessExecutor:
    """Serial in-process executor: the floor of the degradation ladder.

    Same ``execute(unit)`` contract as the pool supervisor (a
    :class:`RunSpec` answers with its record, a :class:`ProgramSpec`
    with its verdict), but no subprocess at all — the simulation
    runs in the calling interpreter under a watchdog.  The pool
    supervisor falls back to this when workers cannot be sustained, so
    "the environment cannot keep a subprocess alive" degrades a campaign
    to slow-but-done rather than dead.  Calls are serialized by a lock:
    degraded throughput is serial by design (there is no isolation left
    to exploit), and the deterministic merge upstream is unaffected.
    """

    def __init__(
        self,
        timeout: Optional[float] = None,
        flight=None,
        forensics_dir=None,
    ):
        self.timeout = timeout
        self.flight = flight
        self.forensics_dir = forensics_dir
        self.forensics_units: List[dict] = []
        self._lock = threading.Lock()

    def execute(self, spec: RunSpec):
        """A campaign unit's record, or a program unit's verdict."""
        with self._lock:
            try:
                if isinstance(spec, ProgramSpec):
                    return self._verdict(spec)
                return self._record(spec)
            except ReproError as err:
                failure = RunFailure(
                    spec, _unit_failure_code(err), str(err), attempts=1
                )
                raise RunFailedError(
                    f"{spec.describe()} failed in-process: "
                    f"{failure.category}: {failure.message}",
                    failure=failure,
                ) from err
            except KeyError as err:
                failure = RunFailure(spec, "config", str(err), attempts=1)
                raise RunFailedError(
                    f"{spec.describe()} failed in-process: config: {err}",
                    failure=failure,
                ) from err

    def _record(self, spec: RunSpec) -> RunRecord:
        from repro.scor.apps.registry import app_by_name

        guard_factory = None
        if self.timeout:
            deadline = self.timeout * 0.8
            guard_factory = lambda: Watchdog(
                GuardConfig(deadline_seconds=deadline)
            )
        runner = Runner(
            verbose=False,
            guard_factory=guard_factory,
            flight=self.flight,
            forensics_dir=self.forensics_dir,
        )
        record = runner.run(
            app_by_name(spec.app),
            detector=spec.detector,
            memory=spec.memory,
            races=spec.races,
            seed=spec.seed,
        )
        self.forensics_units.extend(runner.forensics_units)
        return record

    def _verdict(self, spec: ProgramSpec) -> dict:
        from repro.fuzz.oracles import unit_verdict

        guard = None
        if self.timeout:
            guard = Watchdog(GuardConfig(
                deadline_seconds=self.timeout * 0.8,
                check_interval=PROGRAM_CHECK_INTERVAL,
            ))
        return unit_verdict(spec, guard)
