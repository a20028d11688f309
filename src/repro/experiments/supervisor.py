"""Pool supervision: the robustness contract over the warm workers.

:mod:`repro.experiments.pool` supplies the mechanism (one warm worker,
one pipe, one unit at a time); this module supplies the policy.  A
:class:`PoolSupervisor` is the campaign's isolated executor (same
``execute(spec) -> RunRecord`` contract as the in-process floor,
:class:`~repro.experiments.campaign.InProcessExecutor`) that owns a
fleet of workers and enforces:

* **heartbeat liveness** — a busy worker must produce a frame (result
  or heartbeat) every ``heartbeat_timeout`` seconds or it is declared
  hung and killed;
* **crash isolation with recycling** — a worker is killed and replaced
  only *after* a fault (SIGKILL, OOM, unhandled exception, protocol
  desync, hang); healthy workers are reused for the pool's lifetime;
* **unit timeouts** — a unit that overruns ``unit_timeout`` has its
  worker killed and replaced for free (no budget cost, no poison
  count) and is retried, then failed as ``FAILED(run-timeout)``;
* **bounded restarts** — fault respawns draw from a
  ``max_worker_restarts`` budget, so a pathological environment cannot
  spawn-loop forever;
* **bounded retry with backoff** — a faulted unit is retried on a fresh
  worker with exponential backoff, classified by the error
  taxonomy (deterministic ``config``/``kernel`` errors are not retried);
* **poison-unit quarantine** — a unit that kills ``poison_threshold``
  workers is failed with ``FAILED(poison-unit)`` instead of eating the
  restart budget;
* **backpressure** — at most one in-flight unit per worker; dispatchers
  block on worker checkout, so the inflight window is bounded by the
  pool size and a stalled pool stalls submission instead of queueing
  unboundedly;
* **graceful degradation** — when workers cannot be sustained (restart
  budget exhausted, spawn failures), the supervisor falls back to the
  serial in-process executor: the campaign finishes slower instead of
  not at all.

The degradation ladder, from cheapest to most conservative::

    warm worker ──fault──▶ recycle worker, retry unit (backoff)
        │                        │
        │                        ├─ unit killed K workers ─▶ FAILED(poison-unit)
        │                        └─ restart budget gone ───▶ degrade pool
        └─ unit timeout ─▶ kill + respawn, retry unit (no budget cost)
                                 └─ retries gone ─▶ FAILED(run-timeout)

    degraded pool ─▶ every remaining unit runs serially in-process
                     (watchdog-guarded); campaign completes.

Everything is observable: ``pool.*`` telemetry counters, worker
lifecycle spans, and a :meth:`PoolSupervisor.stats` block the CLI embeds
in the campaign manifest.
"""

from __future__ import annotations

import dataclasses
import json
import queue
import threading
import time
import uuid
from typing import Dict, List, Optional

from repro.common.errors import (
    ConfigError,
    PoisonUnit,
    PoolExhausted,
    ProtocolDesync,
    ReproError,
    RunFailedError,
    RunTimeout,
    SlowLorisWorker,
    WorkerCrash,
    WorkerHang,
)
from repro.experiments.campaign import (
    _NO_RETRY_CODES,
    _unit_failure_code,
    InProcessExecutor,
    RunFailure,
    RunSpec,
)
from repro.experiments.pool import (
    DEFAULT_HEARTBEAT_SECONDS,
    WorkerHandle,
)
from repro.experiments.runner import RunRecord

#: faults that condemn the worker (its stream or process is gone/
#: untrustworthy); anything else in the taxonomy means the worker is
#: healthy and only the unit failed
WORKER_FATAL = (WorkerHang, WorkerCrash, ProtocolDesync, SlowLorisWorker)


@dataclasses.dataclass
class PoolConfig:
    """Sizing and robustness policy for one supervised pool."""

    #: worker processes kept warm (the inflight window)
    workers: int = 2
    #: fault respawns allowed pool-wide before degrading to in-process
    max_worker_restarts: int = 8
    #: per-unit wall-clock bound (None = unbounded)
    unit_timeout: Optional[float] = None
    #: max frame silence from a busy worker before it is declared hung
    heartbeat_timeout: float = 10.0
    #: heartbeat cadence the workers are asked to keep
    heartbeat_seconds: float = DEFAULT_HEARTBEAT_SECONDS
    #: retries per unit after a retryable failure
    max_retries: int = 1
    #: base of the exponential retry backoff
    backoff_seconds: float = 0.25
    #: workers one unit may kill before it is quarantined
    poison_threshold: int = 2
    #: seconds a booting worker gets to pre-import and say ready
    spawn_timeout: float = 60.0

    def __post_init__(self):
        if self.workers < 1:
            raise ConfigError("pool needs at least 1 worker")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.poison_threshold < 1:
            raise ConfigError("poison_threshold must be >= 1")
        if self.max_worker_restarts < 0:
            raise ConfigError("max_worker_restarts must be >= 0")


class PoolSupervisor:
    """Supervised persistent worker pool; a drop-in campaign executor.

    Thread-safe: the parallel campaign's dispatcher threads call
    :meth:`execute` concurrently; each call checks a worker out of the
    idle queue (blocking — that is the backpressure), drives it, and
    checks it back in (or recycles it after a fault).
    """

    def __init__(
        self,
        config: Optional[PoolConfig] = None,
        fault_plan=None,
        telemetry=None,
        verbose: bool = False,
        progress_stream=None,
        flight=None,
        forensics_dir=None,
        event_log_path=None,
    ):
        self.config = config or PoolConfig()
        self.fault_plan = fault_plan
        self.telemetry = telemetry
        self.verbose = verbose
        import sys

        self.progress_stream = progress_stream or sys.stderr
        #: flight/forensics capture forwarded to every worker unit
        self.flight = flight
        self.forensics_dir = forensics_dir
        #: correlation ID stamped on every forwarded log event
        self.campaign_id = uuid.uuid4().hex[:12]
        self._fallback = InProcessExecutor(
            timeout=self.config.unit_timeout,
            flight=flight,
            forensics_dir=forensics_dir,
        )
        # -- structured event log (worker "log" frames) -----------------
        self.forensics_units: List[dict] = []
        self.log_events: List[dict] = []
        self._log_lock = threading.Lock()
        self._event_log_path = event_log_path
        self._event_log_handle = None
        if event_log_path:
            self._event_log_handle = open(event_log_path, "w")
        #: idle queue: WorkerHandle (warm) or None (a spawn slot)
        self._idle: "queue.Queue" = queue.Queue()
        for _ in range(self.config.workers):
            self._idle.put(None)
        self._state = threading.Lock()
        self._next_worker_id = 0
        self._degraded = False
        self._closed = False
        # -- counters (all guarded by _state) --------------------------
        self.spawned = 0
        self.restarts = 0  # fault respawns consumed from the budget
        self.timeout_recycles = 0
        self.heartbeats = 0
        self.units_ok = 0
        self.units_retried = 0
        self.units_degraded = 0
        self.poisoned_specs: Dict[str, str] = {}  # describe() -> category
        self.lost_workers: Dict[str, int] = {}  # error code -> count
        self._poison_counts: Dict[object, int] = {}
        self._live: Dict[int, WorkerHandle] = {}
        #: per-worker lifetime accounting, surviving recycles (satellite
        #: gauges: pool.worker.units_served / pool.worker.lifetime_seconds)
        self._worker_stats: Dict[int, dict] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "PoolSupervisor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def degraded(self) -> bool:
        return self._degraded

    def close(self) -> None:
        """Shut every live worker down gracefully."""
        with self._state:
            if self._closed:
                return
            self._closed = True
            live = list(self._live.values())
            self._live.clear()
        for worker in live:
            self._update_worker_stats(worker)
            worker.shutdown()
            self._mark_worker_dead(worker.worker_id)
        with self._log_lock:
            handle, self._event_log_handle = self._event_log_handle, None
        if handle is not None:
            handle.close()

    # ------------------------------------------------------------------
    # The executor contract
    # ------------------------------------------------------------------
    def execute(self, spec: RunSpec) -> RunRecord:
        """Run *spec* to completion; raises :class:`RunFailedError`."""
        if self._closed:
            raise PoolExhausted(
                "the pool supervisor is closed; no workers can be "
                "checked out or spawned"
            )
        attempts = self.config.max_retries + 1
        last_category, last_message = "unknown", ""
        for attempt in range(1, attempts + 1):
            poisoned = self.poisoned_specs.get(spec.describe())
            if poisoned is not None:
                raise self._poison_failure(spec, attempt, poisoned)
            fault = None
            if self.fault_plan is not None:
                fault = self.fault_plan.action_for(
                    spec.app, spec.detector, spec.memory, attempt
                )
            worker = self._checkout()
            if worker is None:
                # Degraded: the serial in-process floor of the ladder.
                with self._state:
                    self.units_degraded += 1
                self._count("pool.units.degraded")
                return self._fallback.execute(spec)
            hb_before = worker.heartbeats_seen
            error = None
            try:
                record = worker.run_unit(
                    spec,
                    deadline=self.config.unit_timeout,
                    fault=fault,
                    heartbeat_timeout=self.config.heartbeat_timeout,
                    heartbeat_seconds=self.config.heartbeat_seconds,
                    flight=(
                        self.flight.to_dict()
                        if self.flight is not None else None
                    ),
                    forensics_dir=self.forensics_dir,
                    campaign=self.campaign_id,
                )
            except ReproError as err:
                error = err
            self._add_heartbeats(worker.heartbeats_seen - hb_before)
            if error is None:
                self._checkin(worker)
                with self._state:
                    self.units_ok += 1
                self._count("pool.units.ok")
                return record
            last_category = _unit_failure_code(error)
            last_message = str(error)
            if isinstance(error, RunTimeout):
                # The unit overran, not the worker: replace it for free.
                self._recycle_after_timeout(worker)
                self._note(
                    f"worker {worker.worker_id} replaced: "
                    f"{spec.describe()} overran its timeout "
                    f"(attempt {attempt}/{attempts})"
                )
            elif isinstance(error, WORKER_FATAL):
                self._recycle_after_fault(worker, last_category)
                self._note(
                    f"worker {worker.worker_id} lost on "
                    f"{spec.describe()} (attempt {attempt}/{attempts}): "
                    f"{last_category}: {last_message}"
                )
                poison_category = self._note_poison(spec, last_category)
                if poison_category is not None:
                    raise self._poison_failure(
                        spec, attempt, poison_category
                    )
            else:
                # The worker reported a structured failure and is still
                # healthy — the unit failed, not the worker.
                self._checkin(worker)
                if last_category in _NO_RETRY_CODES:
                    break
            if attempt < attempts:
                self._count("pool.units.retried")
                with self._state:
                    self.units_retried += 1
                time.sleep(
                    self.config.backoff_seconds * (2 ** (attempt - 1))
                )
        failure = RunFailure(spec, last_category, last_message, attempt)
        raise RunFailedError(
            f"{spec.describe()} failed after {attempt} attempt(s): "
            f"{last_category}: {last_message}",
            failure=failure,
        )

    # ------------------------------------------------------------------
    # Worker checkout / checkin / recycling
    # ------------------------------------------------------------------
    def _checkout(self) -> Optional[WorkerHandle]:
        """A warm worker, a freshly spawned one, or None when degraded."""
        while True:
            if self._degraded:
                return None
            try:
                token = self._idle.get(timeout=0.5)
            except queue.Empty:
                continue  # re-check the degraded flag, then keep waiting
            if self._degraded:
                self._idle.put(token)
                return None
            if isinstance(token, WorkerHandle):
                if token.alive:
                    return token
                # Died while idle (OOM-killed, external SIGKILL):
                # treat exactly like a mid-unit fault.
                self._recycle_after_fault(token, "worker-crash")
                continue
            worker = self._spawn()
            if worker is not None:
                return worker
            # Spawn failed and consumed budget; loop re-checks state.

    def _spawn(self) -> Optional[WorkerHandle]:
        with self._state:
            worker_id = self._next_worker_id
            self._next_worker_id += 1
        worker = WorkerHandle(
            worker_id, spawn_timeout=self.config.spawn_timeout
        )
        worker.on_log = self._on_worker_log
        try:
            if self.telemetry is not None:
                with self.telemetry.tracer.span(
                    f"pool.spawn:worker-{worker_id}", cat="pool"
                ):
                    worker.spawn()
            else:
                worker.spawn()
        except (ReproError, OSError) as err:
            self._note(f"worker {worker_id} failed to spawn: {err}")
            self._consume_restart("spawn-failed")
            self._idle.put(None)
            return None
        with self._state:
            self.spawned += 1
            self._live[worker.worker_id] = worker
            self._worker_stats[worker.worker_id] = {
                "pid": worker.pid,
                "units_served": 0,
                "heartbeats_seen": 0,
                "lifetime_seconds": 0.0,
                "alive": True,
            }
        self._count("pool.workers.spawned")
        self._note(
            f"worker {worker_id} ready (pid {worker.pid}, "
            f"{self.spawned} spawned so far)"
        )
        return worker

    def _checkin(self, worker: WorkerHandle) -> None:
        """Return a healthy worker to the idle queue."""
        self._update_worker_stats(worker)
        self._idle.put(worker)

    def _recycle_after_fault(
        self, worker: WorkerHandle, category: str
    ) -> None:
        """Kill a faulted worker and account for its replacement."""
        self._update_worker_stats(worker)
        worker.kill()
        self._mark_worker_dead(worker.worker_id)
        with self._state:
            self._live.pop(worker.worker_id, None)
            self.lost_workers[category] = (
                self.lost_workers.get(category, 0) + 1
            )
        self._count("pool.workers.lost", code=category)
        self._consume_restart(category)
        self._idle.put(None)

    def _recycle_after_timeout(self, worker: WorkerHandle) -> None:
        """Kill a worker whose unit overran its timeout; respawn for free.

        A slow unit says nothing about the worker or the environment:
        no restart-budget charge, no poison count, and no
        ``lost_workers`` entry.  The unit is retried up to
        ``max_retries`` and then fails as ``run-timeout``.
        """
        self._update_worker_stats(worker)
        worker.kill()
        self._mark_worker_dead(worker.worker_id)
        with self._state:
            self._live.pop(worker.worker_id, None)
            self.timeout_recycles += 1
        self._count("pool.workers.recycled_timeout")
        self._idle.put(None)

    def _consume_restart(self, reason: str) -> None:
        degrade = False
        with self._state:
            self.restarts += 1
            if self.restarts > self.config.max_worker_restarts:
                degrade = not self._degraded
                self._degraded = True
        self._count("pool.restarts")
        if degrade:
            self._count("pool.degraded")
            self._note(
                f"restart budget exhausted "
                f"({self.restarts - 1}/{self.config.max_worker_restarts} "
                f"used, then {reason}): degrading to the serial "
                "in-process executor"
            )
            # Wake every dispatcher blocked on checkout.
            for _ in range(self.config.workers):
                self._idle.put(None)

    # ------------------------------------------------------------------
    # Poison-unit quarantine
    # ------------------------------------------------------------------
    def _note_poison(self, spec: RunSpec, category: str) -> Optional[str]:
        """Count a worker-fatal fault against *spec*; quarantine at K."""
        key = spec.key()
        with self._state:
            self._poison_counts[key] = self._poison_counts.get(key, 0) + 1
            if self._poison_counts[key] >= self.config.poison_threshold:
                self.poisoned_specs[spec.describe()] = category
                return category
        return None

    def _poison_failure(
        self, spec: RunSpec, attempt: int, category: str
    ) -> RunFailedError:
        with self._state:
            kills = self._poison_counts.get(spec.key(), 0)
        self._count("pool.units.poisoned")
        err = PoisonUnit(
            f"{spec.describe()} killed {kills} worker(s) "
            f"(last fault: {category}); quarantined to protect the pool"
        )
        failure = RunFailure(spec, err.code, str(err), attempt)
        return RunFailedError(str(err), failure=failure)

    # ------------------------------------------------------------------
    # Accounting and observability
    # ------------------------------------------------------------------
    def _add_heartbeats(self, count: int) -> None:
        if count <= 0:
            return
        with self._state:
            self.heartbeats += count
        self._count("pool.heartbeats", amount=count)

    def _count(self, name: str, amount: int = 1, **labels) -> None:
        if self.telemetry is not None:
            self.telemetry.metrics.counter(name, **labels).inc(amount)

    def _update_worker_stats(self, worker: WorkerHandle) -> None:
        """Refresh the lifetime gauges for one worker (satellite export)."""
        units = worker.units_served
        beats = worker.heartbeats_seen
        lifetime = round(worker.lifetime_seconds, 3)
        with self._state:
            entry = self._worker_stats.get(worker.worker_id)
            if entry is None:
                return
            entry["units_served"] = units
            entry["heartbeats_seen"] = beats
            entry["lifetime_seconds"] = lifetime
        if self.telemetry is not None:
            label = str(worker.worker_id)
            self.telemetry.metrics.gauge(
                "pool.worker.units_served", worker=label
            ).set(float(units))
            self.telemetry.metrics.gauge(
                "pool.worker.lifetime_seconds", worker=label
            ).set(lifetime)

    def _mark_worker_dead(self, worker_id: int) -> None:
        with self._state:
            entry = self._worker_stats.get(worker_id)
            if entry is not None:
                entry["alive"] = False

    def all_forensics_units(self) -> List[dict]:
        """Worker-forwarded units plus any captured while degraded."""
        with self._log_lock:
            units = list(self.forensics_units)
        return units + list(self._fallback.forensics_units)

    def _on_worker_log(self, events) -> None:
        """A worker forwarded structured log events over a ``log`` frame.

        Events already carry worker-side correlation IDs (campaign,
        unit, worker pid, request id); the parent's job is durability:
        append to the in-memory log, stream to the JSONL event log, and
        lift ``forensics_unit`` payloads into the campaign-level list.
        """
        with self._log_lock:
            for event in events:
                if not isinstance(event, dict):
                    continue
                self.log_events.append(event)
                if self._event_log_handle is not None:
                    self._event_log_handle.write(
                        json.dumps(event, sort_keys=True) + "\n"
                    )
                unit = event.get("forensics_unit")
                if isinstance(unit, dict):
                    self.forensics_units.append(unit)
            if self._event_log_handle is not None:
                self._event_log_handle.flush()
        self._count("pool.log_events", amount=len(events))

    def _note(self, message: str) -> None:
        if self.verbose:
            print(f"  [pool] {message}", file=self.progress_stream,
                  flush=True)

    def stats(self) -> dict:
        """The manifest's ``pool`` block: everything that happened."""
        with self._log_lock:
            log_count = len(self.log_events)
            forensics_count = len(self.forensics_units)
        with self._state:
            return {
                "campaign": self.campaign_id,
                "workers": self.config.workers,
                "max_worker_restarts": self.config.max_worker_restarts,
                "spawned": self.spawned,
                "restarts": self.restarts,
                "timeout_recycles": self.timeout_recycles,
                "heartbeats": self.heartbeats,
                "units_ok": self.units_ok,
                "units_retried": self.units_retried,
                "units_degraded": self.units_degraded,
                "lost_workers": dict(self.lost_workers),
                "poisoned_units": dict(self.poisoned_specs),
                "degraded": self._degraded,
                "log_events": log_count,
                "forensics_units": forensics_count,
                "event_log": self._event_log_path,
                "per_worker": {
                    str(worker_id): dict(entry)
                    for worker_id, entry in sorted(
                        self._worker_stats.items()
                    )
                },
            }
