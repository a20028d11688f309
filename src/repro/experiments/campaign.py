"""Campaign units, failures, and the runner over an isolated executor.

The in-process :class:`~repro.experiments.runner.Runner` is fast but
fragile — one hung kernel wedges the whole ``scord-experiments all``
campaign and one crash loses it.  This module holds the pieces every
executor shares:

* :class:`RunSpec` — one simulation request, serializable across the
  worker boundary;
* :class:`RunFailure` — a run that failed permanently (retries
  exhausted), which exhibits render as ``FAILED(reason)`` cells and the
  CLI collects into a failure manifest;
* :class:`CampaignRunner` — a :class:`Runner` whose cache misses go to
  an executor; in a campaign that is the supervised worker pool
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
from typing import List, Optional, Tuple, Type

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
from repro.scor.apps.base import ScorApp

SPEC_SCHEMA = 1

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
    seed: int = 1

    def describe(self) -> str:
        flags = f" races={sorted(self.races)}" if self.races else ""
        tag = f" seed={self.seed}" if self.seed != 1 else ""
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
            seed=int(payload.get("seed", 1)),
        )


@dataclasses.dataclass
class RunFailure:
    """A run that failed permanently (all retries exhausted)."""

    spec: RunSpec
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
    """A :class:`Runner` whose cache misses execute in isolated workers.

    Drop-in for the exhibits: same ``run()`` signature, same memoizing
    cache, but a hung or crashed simulation costs one run (retried, then
    marked failed) instead of the campaign.  Permanent failures are
    collected in :attr:`failures` for the CLI's manifest.

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
        preload: bool = True,
        telemetry=None,
        flight=None,
        forensics_dir=None,
    ):
        # Telemetry note: kernel-level spans only exist for in-process
        # simulation; isolated workers run in their own interpreter, so
        # this runner's traces stop at the unit span (which still times
        # the worker round-trip).
        super().__init__(
            verbose=verbose, store=store, preload=preload,
            telemetry=telemetry, flight=flight, forensics_dir=forensics_dir,
        )
        self.executor = executor
        self.failures: List[RunFailure] = []
        #: units a parallel prefetch already failed permanently; keyed by
        #: run_key, consulted so exhibits do not pay the retries twice
        self.prefailed: dict = {}

    def _all_forensics_units(self) -> List[dict]:
        return self.executor.all_forensics_units()

    def _simulate(
        self,
        app_cls: Type[ScorApp],
        detector: str,
        memory: str,
        races: Tuple[str, ...],
        seed: int = 1,
    ) -> RunRecord:
        spec = RunSpec(app_cls.name, detector, memory, tuple(races), seed)
        prior = self.prefailed.get(spec.key())
        if prior is not None:
            raise RunFailedError(
                f"{spec.describe()} already failed during the parallel "
                f"prefetch: {prior.category}: {prior.message}",
                failure=prior,
            )
        try:
            return self.executor.execute(spec)
        except RunFailedError as err:
            if err.failure is not None:
                self.failures.append(err.failure)
            raise


# ----------------------------------------------------------------------
# The in-process fallback executor
# ----------------------------------------------------------------------
class InProcessExecutor:
    """Serial in-process executor: the floor of the degradation ladder.

    Same ``execute(spec) -> RunRecord`` contract as the pool
    supervisor, but no subprocess at all — the simulation
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

    def execute(self, spec: RunSpec) -> RunRecord:
        from repro.scor.apps.registry import app_by_name

        guard_factory = None
        if self.timeout:
            deadline = self.timeout * 0.8
            guard_factory = lambda: Watchdog(
                GuardConfig(deadline_seconds=deadline)
            )
        with self._lock:
            try:
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
