"""The unit scheduler and the content-addressed result cache.

Every work unit runs in an isolated pool worker
(:class:`~repro.experiments.supervisor.PoolSupervisor`), so
inter-simulation parallelism only needs the *parent* to drive several
workers at once.  :class:`UnitScheduler` does that for campaigns and for
the scord-serve daemon alike: a fair per-client queue drained by
long-lived dispatcher threads, one ``digest -> future`` table that
memoizes and coalesces units, and one miss step (cache read rule,
executor, cache write, store append).

Two properties are load-bearing:

* **Deterministic merge** — a campaign reads its results in unit
  *submission* order regardless of completion order, and failures
  occupy their unit's slot.  A campaign at ``--jobs 4`` is
  record-for-record identical to ``--jobs 1`` (wall-clock aside); tests
  assert this.
* **Content addressing** — a :class:`ResultCache` keyed by
  :func:`repro.experiments.store.unit_digest` (a stable hash of the
  resolved GPU config, resolved detector config, kernel identity, seed,
  and schema version) lets re-runs and overlapping exhibits (Fig. 8 and
  Table VI share every baseline run) hit disk instead of re-simulating.
  Keys exclude anything volatile — wall-clock, timestamps, host — so a
  cache written on one machine hits on another.

:func:`prefetch_exhibits` bridges the exhibit layer: exhibits request
runs one at a time, so it first *plans* the campaign by dry-running each
exhibit against a :class:`PlanningRunner` (which records the request
stream and answers with synthetic records), then runs the collected
units on the campaign runner's scheduler.  Planning is best-effort: a
unit the planner misses is submitted by the exhibit itself, to the same
scheduler, so parallelism is an optimization, never a correctness
dependency.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import os
import sys
import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigError, ReproError, error_code
from repro.experiments.campaign import (
    CAMPAIGN_CLIENT,
    CampaignRunner,
    RunFailure,
    RunSpec,
)
from repro.experiments.runner import RunRecord, Runner, file_record, read_cache
from repro.experiments.store import (
    SCHEMA_VERSION,
    atomic_write_json,
    record_from_dict,
    record_to_dict,
    unit_digest,
)

CACHE_SCHEMA = SCHEMA_VERSION


# ----------------------------------------------------------------------
# The content-addressed result cache
# ----------------------------------------------------------------------
class ResultCache:
    """Directory of completed run records, one file per unit digest.

    Layout: ``<root>/<digest[:2]>/<digest>.json`` (two-level fan-out so
    large sweeps do not produce million-entry directories).  Each file
    carries the schema version, the digest it was stored under, and the
    full record; reads re-derive the digest from the request and treat
    any mismatch, parse error, or schema drift as a miss — a corrupt
    cache can cost time, never correctness.  Writes are atomic (temp
    file + rename), so concurrent writers may race to fill the same
    entry and the loser simply overwrites it with identical bytes.

    Invalidation is by construction: the digest hashes the record schema
    version and the resolved configurations, so a schema bump or any
    config change produces fresh digests and the stale entries are
    never consulted again (``prune()`` removes them).
    """

    def __init__(self, root):
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.corrupt = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def path_for(self, digest: str) -> str:
        return os.path.join(self.root, digest[:2], digest + ".json")

    @staticmethod
    def digest_of(app, detector, memory, races, seed=1) -> str:
        return unit_digest(app, detector, memory, races, seed)

    # ------------------------------------------------------------------
    def get(
        self, app: str, detector: str, memory: str,
        races: Iterable[str], seed: int = 1,
    ) -> Optional[RunRecord]:
        """Return the cached record for a unit, or ``None`` on a miss."""
        digest = self.digest_of(app, detector, memory, tuple(races), seed)
        path = self.path_for(digest)
        try:
            with open(path, "r") as handle:
                payload = json.load(handle)
            if payload.get("schema") != CACHE_SCHEMA:
                raise ValueError(f"schema {payload.get('schema')!r}")
            if payload.get("digest") != digest:
                raise ValueError("digest mismatch (renamed entry?)")
            record = record_from_dict(payload["record"])
        except FileNotFoundError:
            with self._lock:
                self.misses += 1
            return None
        except Exception:
            # A torn, stale, or hand-edited entry is a miss, not a crash.
            with self._lock:
                self.corrupt += 1
                self.misses += 1
            return None
        with self._lock:
            self.hits += 1
        return record

    def get_spec(self, spec: RunSpec) -> Optional[RunRecord]:
        return self.get(
            spec.app, spec.detector, spec.memory, spec.races, spec.seed
        )

    # ------------------------------------------------------------------
    def put(self, record: RunRecord) -> None:
        """Store one completed record under its unit digest."""
        digest = self.digest_of(
            record.app, record.detector, record.memory,
            record.races_enabled, record.seed,
        )
        path = self.path_for(digest)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        atomic_write_json(
            path,
            {
                "schema": CACHE_SCHEMA,
                "digest": digest,
                "record": record_to_dict(record),
            },
        )
        with self._lock:
            self.writes += 1

    # ------------------------------------------------------------------
    def prune(self) -> int:
        """Delete entries no current-schema request can ever hit."""
        removed = 0
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                path = os.path.join(dirpath, name)
                try:
                    with open(path, "r") as handle:
                        payload = json.load(handle)
                    stale = payload.get("schema") != CACHE_SCHEMA
                except Exception:
                    stale = True
                if stale:
                    try:
                        os.unlink(path)
                        removed += 1
                    except OSError:
                        pass
        return removed

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "writes": self.writes,
                "corrupt": self.corrupt,
            }


# ----------------------------------------------------------------------
# Work units and outcomes
# ----------------------------------------------------------------------
@dataclasses.dataclass
class UnitOutcome:
    """What happened to one work unit."""

    spec: RunSpec
    record: Optional[RunRecord] = None
    failure: Optional[RunFailure] = None
    source: str = "run"  # "run" | "cache"
    #: the dispatcher that ran the unit (None: answered at submission)
    shard: Optional[int] = None
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.record is not None


@dataclasses.dataclass
class CampaignOutcome:
    """Deterministically merged results of one parallel campaign."""

    outcomes: List[UnitOutcome]
    jobs: int

    @property
    def failures(self) -> List[RunFailure]:
        return [o.failure for o in self.outcomes if o.failure is not None]

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.source == "cache")

    @property
    def executed(self) -> int:
        return sum(
            1 for o in self.outcomes if o.source == "run" and o.ok
        )


def dedupe_specs(specs: Sequence[RunSpec]) -> List[RunSpec]:
    """Drop duplicate units, preserving first-seen order."""
    seen = set()
    unique: List[RunSpec] = []
    for spec in specs:
        key = spec.key()
        if key in seen:
            continue
        seen.add(key)
        unique.append(spec)
    return unique


# ----------------------------------------------------------------------
# The unit scheduler
# ----------------------------------------------------------------------
class UnitFuture(Future):
    """A unit's answer; its dispatcher notes where and how long it ran."""

    def __init__(self):
        super().__init__()
        #: index of the dispatcher thread that ran the unit (None when
        #: the memo table or the disk cache answered it at submission)
        self.dispatcher: Optional[int] = None
        self.seconds = 0.0


class UnitScheduler:
    """One fair, coalescing queue of work units in front of an executor.

    Campaigns (one client, ``--jobs`` dispatchers) and the scord-serve
    daemon (one client per ``X-Scord-Client``) both run units here.  A
    FIFO per client is drained round-robin, one unit at a time, by
    long-lived dispatcher threads, no client running more than
    *per_client* units at once; a campaign unit's dispatcher blocks
    in ``executor.execute(spec)`` (normally a
    :class:`~repro.experiments.supervisor.PoolSupervisor`, so the GIL is
    irrelevant: simulations burn CPU in worker processes).  One
    ``digest -> future`` table is both the memo (a done future answers a
    resubmitted unit) and the coalescing registry (an identical queued
    or running unit is joined, not re-run); a failed future leaves it,
    so a resubmitted unit runs again.  Memo and cache hits are answered
    by :meth:`submit` itself, never by a dispatcher, so a resubmitted
    job does not wait behind another client's simulations.  Misses take
    the one miss step: :func:`~repro.experiments.runner.read_cache`,
    executor, :func:`~repro.experiments.runner.file_record` (store
    appends under one lock never interleave torn JSONL lines).
    """

    def __init__(
        self,
        executor,
        threads: int = 1,
        cache: Optional[ResultCache] = None,
        store=None,
        telemetry=None,
        per_client: Optional[int] = None,
    ):
        if threads < 1:
            raise ConfigError("a unit scheduler needs >= 1 dispatcher")
        self.executor = executor
        self.threads = threads
        #: most units one client runs at once (None: every dispatcher)
        self.per_client = per_client or threads
        self.cache = cache
        self.store = store
        #: optional :class:`repro.telemetry.Telemetry` — campaign unit
        #: spans land on each dispatcher thread's own trace track
        self.telemetry = telemetry
        #: the executor captures flight events: write the cache, never
        #: read it (:func:`~repro.experiments.runner.read_cache`)
        self.capture = getattr(executor, "flight", None) is not None
        self._cond = threading.Condition()
        self._store_lock = threading.Lock()
        self._table: Dict[str, UnitFuture] = {}
        #: client -> FIFO of (digest, future, run), in arrival order
        self._queues: Dict[str, deque] = {}
        self._running: Dict[str, int] = {}
        self._turn = 0
        self._active = 0
        self._stopping = False
        self._threads = [
            threading.Thread(
                target=self._dispatch, args=(index,),
                name=f"unit-dispatch-{index}", daemon=True,
            )
            for index in range(threads)
        ]
        for thread in self._threads:
            thread.start()

    def __enter__(self) -> "UnitScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def submit(
        self, client: str, spec: Optional[RunSpec] = None,
        digest: Optional[str] = None, run=None,
    ) -> Tuple[UnitFuture, str]:
        """Answer one unit now, or queue it under *client*.

        A campaign unit is a :class:`RunSpec`: its digest defaults to
        :func:`unit_digest` and its run to :meth:`execute`.  A unit
        with no spec (the service's programs) passes its own *digest*
        and a zero-argument *run* (which calls :meth:`execute` with a
        :class:`~repro.experiments.campaign.ProgramSpec`).  Returns
        ``(future, source)``:
        ``"cache"`` when the memo table or the disk cache answered (the
        future is done), ``"coalesced"`` when an identical unit is
        queued or running, else ``"executed"``.
        """
        if digest is None:
            digest = unit_digest(
                spec.app, spec.detector, spec.memory, spec.races, spec.seed
            )
        with self._cond:
            known = self._known(digest)
        if known is not None:
            return known
        future = UnitFuture()
        record = read_cache(self.cache, spec, self.capture) if spec else None
        if record is not None:
            future.set_result(record)
            with self._cond:
                self._table.setdefault(digest, future)
            return future, "cache"
        with self._cond:
            known = self._known(digest)
            if known is not None:
                return known
            if self._stopping:
                future.cancel()
                return future, "executed"
            self._table[digest] = future
            if run is None:
                run = functools.partial(self.execute, spec)
            self._queues.setdefault(client, deque()).append(
                (digest, future, run)
            )
            # all: a drain() waiter shares the condition with dispatchers
            self._cond.notify_all()
        return future, "executed"

    def _known(self, digest: str) -> Optional[Tuple[UnitFuture, str]]:
        future = self._table.get(digest)
        if future is None:
            return None
        return future, "cache" if future.done() else "coalesced"

    def execute(self, spec):
        """Run one unit on the executor: a campaign unit's record is
        kept (cache, store) and returned; a program unit's verdict is
        returned."""
        span = contextlib.nullcontext()
        if self.telemetry is not None:
            span = self.telemetry.tracer.span(
                f"unit:{spec.describe()}", cat="exp"
            )
        with span:
            answer = self.executor.execute(spec)
        if isinstance(spec, RunSpec):
            with self._store_lock:
                file_record(answer, self.cache, self.store)
        return answer

    # ------------------------------------------------------------------
    def _dispatch(self, index: int) -> None:
        while True:
            with self._cond:
                item = self._next()
                while item is None and not self._stopping:
                    self._cond.wait()
                    item = self._next()
                if self._stopping:
                    return
                client, (digest, future, run) = item
                self._active += 1
                self._running[client] = self._running.get(client, 0) + 1
            started = time.monotonic()
            error = value = None
            try:
                value = run()
            except Exception as err:  # the future carries it to waiters
                error = err
            future.dispatcher = index
            future.seconds = time.monotonic() - started
            if error is None:
                future.set_result(value)
            else:
                with self._cond:
                    self._table.pop(digest, None)
                future.set_exception(error)
            with self._cond:
                self._active -= 1
                self._running[client] -= 1
                self._cond.notify_all()

    def _next(self):
        """Pop the next unit, one client at a time, or None when every
        client with queued units already runs *per_client* of them
        (caller holds the lock)."""
        clients = list(self._queues)
        count = len(clients)
        for step in range(count):
            client = clients[(self._turn + step) % count]
            queue = self._queues[client]
            if queue and self._running.get(client, 0) < self.per_client:
                self._turn = (self._turn + step + 1) % count
                return client, queue.popleft()
        return None

    # ------------------------------------------------------------------
    def run_units(
        self, specs: Sequence[RunSpec], client: str = CAMPAIGN_CLIENT,
        verbose: bool = False,
    ) -> CampaignOutcome:
        """Run every unit as one client; outcomes in submission order."""
        unique = dedupe_specs(specs)
        tickets = [(spec,) + self.submit(client, spec) for spec in unique]
        if verbose:
            for spec, future, _ in tickets:
                future.add_done_callback(lambda _, spec=spec: print(
                    f"  [done] {spec.describe()}", file=sys.stderr, flush=True
                ))
        outcomes = [
            self._outcome(spec, future, source)
            for spec, future, source in tickets
        ]
        return CampaignOutcome(outcomes=outcomes, jobs=self.threads)

    def _outcome(self, spec, future: UnitFuture, source: str) -> UnitOutcome:
        outcome = UnitOutcome(
            spec, source="cache" if source == "cache" else "run"
        )
        try:
            outcome.record = future.result()
        except ReproError as err:
            outcome.failure = getattr(err, "failure", None) or RunFailure(
                spec, error_code(err), str(err), attempts=1
            )
        if source != "cache":
            outcome.shard = future.dispatcher
            outcome.seconds = future.seconds
        if self.telemetry is not None and outcome.shard is not None:
            metrics = self.telemetry.metrics
            shard = str(outcome.shard)
            metrics.counter("exp.shard.units", shard=shard).inc()
            metrics.counter(
                "exp.shard.busy_seconds", shard=shard
            ).inc(outcome.seconds)
        return outcome

    # ------------------------------------------------------------------
    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until nothing is queued or running; False on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._active or any(self._queues.values()):
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._cond.wait(remaining)
        return True

    def close(self, timeout: Optional[float] = None) -> None:
        """Cancel queued units, let running ones finish, stop dispatching."""
        with self._cond:
            self._stopping = True
            queued = [item for q in self._queues.values() for item in q]
            for queue in self._queues.values():
                queue.clear()
            for digest, _, _ in queued:
                self._table.pop(digest, None)
            self._cond.notify_all()
        for _, future, _ in queued:
            future.cancel()
        for thread in self._threads:
            thread.join(timeout)

    def stats(self) -> Dict[str, int]:
        with self._cond:
            return {
                "pending_units": sum(map(len, self._queues.values())),
                "active_units": self._active,
            }


# ----------------------------------------------------------------------
# Campaign planning: turn exhibits into a unit list
# ----------------------------------------------------------------------
def _planning_record(
    app: str, detector: str, memory: str, races, seed: int
) -> RunRecord:
    """A plausible synthetic record for dry-running exhibit code."""
    return RunRecord(
        app=app,
        detector=detector,
        memory=memory,
        races_enabled=frozenset(races),
        cycles=1000,
        dram_data=100,
        dram_metadata=10,
        unique_races=0,
        race_types=frozenset(),
        race_keys=frozenset(),
        verified=True,
        wall_seconds=0.0,
        seed=seed,
    )


class PlanningRunner(Runner):
    """Dry-run runner: records the request stream, simulates nothing.

    Exhibit request streams are value-independent (they iterate fixed
    app/detector/memory grids), so answering every request with a
    synthetic record reproduces exactly the unit list the real render
    pass will ask for.
    """

    def __init__(self):
        super().__init__(verbose=False)
        self.requests: List[RunSpec] = []

    def _simulate(self, app_cls, detector, memory, races, seed):
        spec = RunSpec(
            app_cls.name, detector, memory, tuple(sorted(races)), seed
        )
        self.requests.append(spec)
        return _planning_record(app_cls.name, detector, memory, races, seed)


def plan_exhibits(exhibits: Dict[str, object],
                  names: Sequence[str]) -> List[RunSpec]:
    """Collect the deduplicated unit list the named exhibits will request.

    Best-effort: an exhibit that errors mid-plan still contributes the
    units it requested before failing.
    """
    planner = PlanningRunner()
    for name in names:
        render = exhibits.get(name)
        if render is None:
            continue
        try:
            render(planner)
        except Exception:
            # The real pass will surface this error (or succeed where
            # planning could not); planning only needs the request log.
            pass
    return dedupe_specs(planner.requests)


# ----------------------------------------------------------------------
# Wiring: prefetch a campaign into a runner
# ----------------------------------------------------------------------
def prefetch_exhibits(
    runner: CampaignRunner,
    exhibits: Dict[str, object],
    names: Sequence[str],
    verbose: bool = False,
) -> Optional[CampaignOutcome]:
    """Plan the campaign, run it on *runner*'s scheduler, warm its memo.

    After this returns, the exhibits' own ``runner.run`` calls are memo
    hits (or immediate, non-retried failures for units the prefetch
    exhausted retries on).  Returns the merged outcome, or ``None`` if
    nothing needed running.
    """
    units = plan_exhibits(exhibits, names)
    if not units:
        return None
    scheduler = runner.scheduler
    if verbose:
        cache = scheduler.cache
        print(
            f"  [parallel] {len(units)} unit(s) across "
            f"{scheduler.threads} dispatcher(s)"
            f"{' (cache: ' + cache.root + ')' if cache else ''}",
            file=sys.stderr,
            flush=True,
        )
    outcome = scheduler.run_units(
        units, client=CAMPAIGN_CLIENT, verbose=verbose
    )
    for unit in outcome.outcomes:
        if unit.record is not None:
            runner._fold(unit.spec, unit.record, unit.source, unit.seconds)
        elif unit.failure is not None:
            runner.prefailed[unit.spec.key()] = unit.failure
            runner._fail(unit.failure, unit.seconds)
    return outcome
