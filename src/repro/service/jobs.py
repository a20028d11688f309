"""The scord-serve job manager: admission, jobs, reports, drain.

- **Admission** (:meth:`JobManager.submit`): parse + validate the body
  (:mod:`repro.service.schemas`), run the scolint preflight on program
  submissions (statically-racy programs are refused with the rule
  verdict unless ``on_static_race: "accept"``), and charge the client's
  token bucket one token per unit (all-or-nothing, 429 otherwise).
- **Scheduling and execution** belong to the campaigns'
  :class:`~repro.experiments.parallel.UnitScheduler`: each unit is
  submitted under its client, so fairness, coalescing, the memo, the
  :class:`~repro.experiments.parallel.ResultCache` and the
  :class:`~repro.experiments.store.RunStore` behave exactly as offline,
  and service records are identical to offline records.  A program job
  is one unit (:class:`~repro.experiments.campaign.ProgramSpec`: the
  fuzzer's dynamic oracle, one ScoRD run on the native schedule).  It
  runs on the same pool as campaign units, under the same timeout,
  retry and poison rules, and is memoized under
  :func:`repro.fuzz.program.fuzz_unit_digest`.
"""

from __future__ import annotations

import dataclasses
import threading
import time
import uuid
from concurrent.futures import CancelledError
from typing import Dict, List, Optional

from repro.common.errors import RunFailedError
from repro.experiments.campaign import ProgramSpec, RunFailure
from repro.service.quota import QuotaManager
from repro.service.schemas import (
    JOB_SCHEMA,
    REPORT_SCHEMA,
    ServiceError,
    parse_submission,
)


@dataclasses.dataclass
class ServiceConfig:
    """Everything ``scord-experiments serve`` can tune."""

    host: str = "127.0.0.1"
    port: int = 8787
    #: persistent warm workers behind the shared PoolSupervisor
    workers: int = 2
    #: unit-scheduler dispatcher threads: units running at once, one
    #: per client
    dispatchers: int = 2
    #: durable JSONL run store (None = memory only)
    store_path: Optional[str] = None
    #: content-addressed result cache root (None = no cross-restart cache)
    cache_dir: Optional[str] = None
    #: per-client token bucket: capacity and refill rate (tokens/second)
    quota_units: float = 256.0
    quota_refill_per_s: float = 4.0
    #: per-unit wall-clock timeout inside the pool
    unit_timeout: Optional[float] = None
    #: write per-unit forensics bundles under this directory
    forensics_dir: Optional[str] = None
    verbose: bool = False


@dataclasses.dataclass
class Job:
    """One submission's full lifecycle (guarded by the manager lock)."""

    id: str
    client: str
    kind: str  # "campaign" | "program"
    created: float
    specs: List = dataclasses.field(default_factory=list)
    program = None
    detector: str = "scord"
    static: Optional[dict] = None
    state: str = "queued"  # queued -> running -> done | failed
    results: List[Optional[dict]] = dataclasses.field(default_factory=list)
    units_done: int = 0
    cache_hits: int = 0
    executed: int = 0
    failed: int = 0
    finished: Optional[float] = None

    @property
    def units_total(self) -> int:
        return len(self.results)

    def status_dict(self) -> dict:
        doc = {
            "schema": JOB_SCHEMA,
            "id": self.id,
            "client": self.client,
            "kind": self.kind,
            "state": self.state,
            "units_total": self.units_total,
            "units_done": self.units_done,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "failed": self.failed,
            "created": self.created,
            "finished": self.finished,
            "report": f"/v1/jobs/{self.id}/report",
        }
        if self.kind == "program":
            doc["static"] = self.static
            doc["detector"] = self.detector
        return doc


class JobManager:
    """Admission control, job bookkeeping, reports, and drain."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        telemetry=None,
        quota_clock=time.monotonic,
    ):
        from repro.experiments.parallel import ResultCache, UnitScheduler
        from repro.experiments.store import RunStore
        from repro.experiments.supervisor import PoolConfig, PoolSupervisor
        from repro.telemetry import FlightConfig, Telemetry

        self.config = config or ServiceConfig()
        self.telemetry = telemetry or Telemetry.disabled()
        self.quotas = QuotaManager(
            self.config.quota_units,
            self.config.quota_refill_per_s,
            clock=quota_clock,
        )
        self.store: Optional[RunStore] = (
            RunStore(self.config.store_path)
            if self.config.store_path
            else None
        )
        self.cache: Optional[ResultCache] = (
            ResultCache(self.config.cache_dir)
            if self.config.cache_dir
            else None
        )
        pool_config = PoolConfig(workers=max(1, self.config.workers))
        if self.config.unit_timeout:
            pool_config = dataclasses.replace(
                pool_config, unit_timeout=self.config.unit_timeout
            )
        self.supervisor = PoolSupervisor(
            config=pool_config,
            telemetry=self.telemetry,
            verbose=self.config.verbose,
            flight=FlightConfig() if self.config.forensics_dir else None,
            forensics_dir=self.config.forensics_dir,
        )
        # One running unit per client: parallelism comes from serving
        # several clients at once, so no client holds every worker and
        # the daemon keeps CPU for admission and cache-hit jobs (two
        # units of one job at once doubled perfbench serve's median on
        # a 2-CPU host).
        self.scheduler = UnitScheduler(
            self.supervisor,
            threads=max(1, self.config.dispatchers),
            cache=self.cache,
            store=self.store,
            per_client=1,
        )
        # -- job state (guarded by _lock / signalled on _cond) ---------
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._jobs: Dict[str, Job] = {}
        self._clients: set = set()
        self._draining = False
        self._stopping = False
        # -- service.* metrics (created eagerly: stable exposition) ----
        metrics = self.telemetry.metrics
        self._m_submitted = metrics.counter("service.jobs.submitted")
        self._m_completed = metrics.counter("service.jobs.completed")
        self._m_job_failed = metrics.counter("service.jobs.failed")
        self._m_units = metrics.counter("service.units.total")
        self._m_executed = metrics.counter("service.units.executed")
        self._m_cache_hits = metrics.counter("service.units.cache_hits")
        self._m_coalesced = metrics.counter("service.units.coalesced")
        self._m_unit_failed = metrics.counter("service.units.failed")
        self._m_preflight = metrics.counter("service.preflight.runs")
        self._m_static_reject = metrics.counter(
            "service.rejected", reason="static-race"
        )
        self._m_quota_reject = metrics.counter(
            "service.rejected", reason="quota-exceeded"
        )
        self._g_inflight = metrics.gauge("service.jobs.inflight")
        self._g_clients = metrics.gauge("service.clients")
        self._h_unit = metrics.histogram("service.unit.seconds")

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(self, client: str, payload) -> Job:
        """Validate, preflight, charge quota, and submit one job."""
        if self._draining or self._stopping:
            raise ServiceError(
                "draining",
                "the daemon is draining and accepts no new jobs",
            )
        parsed = parse_submission(payload)
        if parsed["kind"] == "campaign":
            units = len(parsed["specs"])
            static = None
        else:
            units = 1
            static = self._preflight(parsed)
        retry_after = self.quotas.charge(client, units)
        if retry_after:
            self._m_quota_reject.inc()
            raise ServiceError(
                "quota-exceeded",
                f"client {client!r} lacks quota for {units} unit(s)",
                detail={
                    "units": units,
                    "retry_after_seconds": round(retry_after, 3),
                },
            )
        job = Job(
            id=uuid.uuid4().hex[:12],
            client=client,
            kind=parsed["kind"],
            created=time.time(),
        )
        if parsed["kind"] == "campaign":
            job.specs = parsed["specs"]
        else:
            job.program = parsed["program"]
            job.detector = parsed["detector"]
            job.static = static
        job.results = [None] * units
        with self._cond:
            self._jobs[job.id] = job
            self._clients.add(client)
            self._g_clients.set(len(self._clients))
            self._g_inflight.inc()
        self._m_submitted.inc()
        self._m_units.inc(units)
        for index in range(units):
            self._submit_unit(job, index)
        return job

    def _preflight(self, parsed: dict) -> dict:
        """Synchronous scolint pass over a program submission."""
        from repro.fuzz.oracles import static_verdict

        self._m_preflight.inc()
        with self.telemetry.phase("service.preflight", cat="service"):
            verdict = static_verdict(parsed["program"])
        if verdict["racy"] and parsed["on_static_race"] == "reject":
            self._m_static_reject.inc()
            raise ServiceError(
                "static-race",
                "scolint found statically-detectable races; fix them or "
                "resubmit with on_static_race='accept'",
                detail={"static": verdict},
            )
        return verdict

    # ------------------------------------------------------------------
    # Lookup / reporting
    # ------------------------------------------------------------------
    def job(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError("unknown-job", f"no job {job_id!r}")
        return job

    def report_dict(self, job: Job) -> dict:
        with self._lock:
            units = [dict(r) if r else None for r in job.results]
            status = job.status_dict()
        failures = [
            unit["failure"]
            for unit in units
            if unit and unit.get("failure")
        ]
        doc = {
            "schema": REPORT_SCHEMA,
            "job": status,
            "units": units,
            "failures": failures,
        }
        if job.kind == "program":
            doc["static"] = job.static
            doc["dynamic"] = (units[0] or {}).get("verdict")
        if self.cache is not None:
            doc["cache"] = self.cache.stats()
        doc["pool"] = self.supervisor.stats()
        forensics = self._forensics_for(job)
        if forensics is not None:
            doc["forensics"] = forensics
        return doc

    def _forensics_for(self, job: Job) -> Optional[List[dict]]:
        if self.config.forensics_dir is None or job.kind != "campaign":
            return None
        from repro.experiments.runner import Runner

        labels = {
            Runner.unit_label(
                s.app, s.detector, s.memory, s.races, s.seed
            )
            for s in job.specs
        }
        return [
            unit
            for unit in self.supervisor.all_forensics_units()
            if unit.get("unit") in labels
        ]

    def iter_unit_results(self, job: Job):
        """Yield unit-result dicts in index order as they complete.

        Blocks between yields until the next unit lands; used by the
        NDJSON streaming report.  Terminates once every unit has been
        yielded (the job is then in a terminal state).
        """
        for index in range(job.units_total):
            with self._cond:
                while job.results[index] is None and not self._stopping:
                    self._cond.wait(timeout=0.5)
                result = job.results[index]
            if result is None:  # manager stopped mid-stream
                return
            yield dict(result)

    # ------------------------------------------------------------------
    # Units
    # ------------------------------------------------------------------
    def _submit_unit(self, job: Job, index: int) -> None:
        """Hand one unit to the scheduler; record it when answered."""
        submitted = time.monotonic()
        spec = job.specs[index] if job.kind == "campaign" else None
        digest = _unit_digest(job, index)
        future, source = self.scheduler.submit(
            job.client, spec, digest, run=lambda: self._run_unit(job, index)
        )
        future.add_done_callback(
            lambda done: self._record(job, index, digest, source, done,
                                      submitted)
        )

    def _run_unit(self, job: Job, index: int):
        """Execute unit *index* of *job* on a dispatcher thread.

        Runs only when neither the memo table, the cache, nor an
        identical queued or running unit answers it; returns the
        record (campaign) or verdict (program).
        """
        with self._cond:
            if job.state == "queued":
                job.state = "running"
        label = _unit_label(job, index)
        with self.telemetry.phase(
            "service.unit", cat="service", unit=label, client=job.client
        ):
            if job.kind == "campaign":
                return self.scheduler.execute(job.specs[index])
            unit = _program_unit(job)
            verdict = self.scheduler.execute(unit)
        if "error" in verdict:
            # The program crashed the simulator: a failed unit, not a
            # verdict, so a resubmission runs it again.
            failure = RunFailure(unit, "simulation", verdict["error"], 1)
            raise RunFailedError(
                f"{unit.describe()}: {verdict['error']}", failure=failure
            )
        return verdict

    def _record(
        self, job: Job, index: int, digest: str, source: str, future,
        submitted: float,
    ) -> None:
        """Fold one answered unit into its job (any thread)."""
        from repro.experiments.store import record_to_dict

        result = {"unit": _unit_label(job, index), "kind": job.kind}
        if job.kind == "campaign":
            result["spec"] = job.specs[index].to_dict()
        else:
            result["detector"] = job.detector
        result.update(digest=digest, failure=None, source=source)
        try:
            value = future.result()
        except CancelledError:
            result["failure"] = {
                "category": "internal",
                "message": "the daemon stopped before the unit ran",
            }
        except RunFailedError as err:
            failure = getattr(err, "failure", None)
            result["failure"] = (
                failure.to_dict()
                if failure is not None
                else {"category": err.code, "message": str(err)}
            )
        except Exception as err:
            result["failure"] = {
                "category": (
                    "internal" if job.kind == "campaign" else "simulation"
                ),
                "message": f"{type(err).__name__}: {err}",
            }
        else:
            if job.kind == "campaign":
                result["record"] = record_to_dict(value)
            else:
                result["verdict"] = dict(value)
        result["seconds"] = round(time.monotonic() - submitted, 6)
        self._h_unit.observe(result["seconds"])
        with self._cond:
            job.results[index] = result
            job.units_done += 1
            if result["failure"]:
                job.failed += 1
                self._m_unit_failed.inc()
            elif source == "cache":
                job.cache_hits += 1
                self._m_cache_hits.inc()
            elif source == "coalesced":
                job.cache_hits += 1
                self._m_coalesced.inc()
            else:
                job.executed += 1
                self._m_executed.inc()
            if job.units_done == job.units_total:
                job.state = "failed" if job.failed else "done"
                job.finished = time.time()
                self._g_inflight.inc(-1)
                if job.failed:
                    self._m_job_failed.inc()
                else:
                    self._m_completed.inc()
            elif job.state == "queued":
                job.state = "running"
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Drain / shutdown
    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Refuse new jobs, let queued and running units finish, shut down.

        Returns True when every accepted job reached a terminal state
        within *timeout* seconds (None = wait indefinitely).
        """
        self._draining = True
        drained = self.scheduler.drain(timeout)
        self.close()
        return drained

    def close(self) -> None:
        """Stop the scheduler and the worker pool (idempotent)."""
        with self._cond:
            if self._stopping:
                return
            self._draining = True
            self._stopping = True
            self._cond.notify_all()
        self.scheduler.close(timeout=10)
        self.supervisor.close()

    def stats(self) -> dict:
        """Live operational snapshot (rendered by /healthz)."""
        with self._lock:
            jobs = list(self._jobs.values())
        states: Dict[str, int] = {}
        for job in jobs:
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "jobs": len(jobs),
            "states": states,
            **self.scheduler.stats(),
            "draining": self._draining,
            "quota": self.quotas.snapshot(),
            "pool": self.supervisor.stats(),
            "cache": self.cache.stats() if self.cache else None,
        }


def _unit_digest(job: Job, index: int) -> str:
    if job.kind == "campaign":
        from repro.experiments.store import unit_digest

        spec = job.specs[index]
        return unit_digest(
            spec.app, spec.detector, spec.memory, spec.races, spec.seed
        )
    from repro.fuzz.program import fuzz_unit_digest

    return fuzz_unit_digest(job.program, job.detector)


def _program_unit(job: Job) -> ProgramSpec:
    return ProgramSpec(job.program, "dynamic", job.detector)


def _unit_label(job: Job, index: int) -> str:
    if job.kind == "campaign":
        return job.specs[index].describe()
    return _program_unit(job).describe()
