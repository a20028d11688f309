"""scord-serve: race-checking as a service.

A long-lived, stdlib-only HTTP/JSON daemon that turns the repository's
offline campaign machinery into a multi-tenant front door:

- submissions are either **campaign units** (the same ``RunSpec`` shape
  ``scord-experiments`` runs offline) or **kernel-DSL programs**
  (``fuzz-program/v1``, the fuzzer's serializable IR);
- scolint runs as a synchronous preflight — statically-racy program
  submissions are rejected at the door with the rule verdict (HTTP 422)
  unless the client explicitly opts in to running them anyway;
- accepted units queue on the campaigns' own
  :class:`~repro.experiments.parallel.UnitScheduler`, whose dispatcher
  threads feed ONE shared :class:`~repro.experiments.supervisor.PoolSupervisor`
  (the warm-worker pool), so the simulation backend stays saturated
  under concurrent clients instead of re-spawning per request;
- the content-addressed :class:`~repro.experiments.parallel.ResultCache`
  is the shared store — identical submissions from different clients are
  cache hits, and concurrent identical units coalesce onto one execution;
- multi-tenancy comes from per-client token-bucket quotas (HTTP 429)
  and fair round-robin scheduling, one unit at a time, across clients'
  queues;
- every request gets a trace span and ``service.*`` metrics on the
  shared PR 3/PR 8 telemetry bundle, exported at ``GET /metrics`` in
  Prometheus text format.

Endpoints (see ``docs/service.md`` for schemas and worked examples)::

    POST /v1/jobs             submit a job            -> 202 service-job/v1
    GET  /v1/jobs/{id}        poll job status         -> 200 service-job/v1
    GET  /v1/jobs/{id}/report full results            -> 200 service-report/v1
    GET  /v1/jobs/{id}/report?stream=1   NDJSON unit results as they land
    GET  /healthz             liveness + drain state
    GET  /metrics             Prometheus 0.0.4 text exposition

The package splits along the collector -> detector -> alerter seam:
:mod:`repro.service.schemas` (wire formats + validation),
:mod:`repro.service.quota` (token buckets),
:mod:`repro.service.jobs` (job manager: preflight, jobs, reports,
drain), :mod:`repro.service.daemon` (the HTTP layer
and drain choreography), and :mod:`repro.service.cli` (``scord-experiments
serve``).
"""

from repro.service.schemas import (  # noqa: F401
    ERROR_CODES,
    JOB_SCHEMA,
    REPORT_SCHEMA,
    ServiceError,
)
from repro.service.quota import QuotaManager, TokenBucket  # noqa: F401
from repro.service.jobs import Job, JobManager, ServiceConfig  # noqa: F401
from repro.service.daemon import ServiceDaemon  # noqa: F401

__all__ = [
    "ERROR_CODES",
    "JOB_SCHEMA",
    "REPORT_SCHEMA",
    "Job",
    "JobManager",
    "QuotaManager",
    "ServiceConfig",
    "ServiceDaemon",
    "ServiceError",
    "TokenBucket",
]
