"""Job-manager internals: fairness, coalescing, cache hits, verdicts.

The fairness and coalescing tests drive a real :class:`JobManager`
whose unit scheduler runs on a gated fake executor: every simulation
blocks until the test opens the gate, so queue order is deterministic
and no worker process is spawned.
"""

import threading

import pytest

from repro.experiments.campaign import RunSpec
from repro.experiments.parallel import ResultCache
from repro.experiments.runner import RunRecord
from repro.experiments.store import RunStore
from repro.service.jobs import (
    Job,
    JobManager,
    ServiceConfig,
)
from repro.service.schemas import JOB_SCHEMA


def fake_record(spec: RunSpec) -> RunRecord:
    return RunRecord(
        app=spec.app, detector=spec.detector, memory=spec.memory,
        races_enabled=frozenset(spec.races), cycles=1000 + spec.seed,
        dram_data=10, dram_metadata=1, unique_races=0,
        race_types=frozenset(), race_keys=frozenset(), verified=True,
        wall_seconds=0.0, seed=spec.seed,
    )


class GatedExecutor:
    """Answers every unit with a fake record once the gate opens."""

    def __init__(self):
        self.gate = threading.Event()
        self.calls = []
        self.running = threading.Semaphore(0)
        self._lock = threading.Lock()

    def execute(self, spec: RunSpec) -> RunRecord:
        with self._lock:
            self.calls.append(spec)
        self.running.release()
        assert self.gate.wait(timeout=60)
        return fake_record(spec)

    def wait_running(self, count: int) -> None:
        for _ in range(count):
            assert self.running.acquire(timeout=60)


def campaign(*seeds):
    return {
        "schema": JOB_SCHEMA,
        "units": [{"app": "RED", "seed": seed} for seed in seeds],
    }


@pytest.fixture()
def gated(tmp_path):
    """A manager (cache + store) whose scheduler runs a gated executor."""
    manager = JobManager(
        ServiceConfig(
            workers=1, dispatchers=1,
            store_path=str(tmp_path / "store.jsonl"),
            cache_dir=str(tmp_path / "cache"),
        )
    )
    executor = GatedExecutor()
    manager.scheduler.executor = executor
    yield manager, executor
    executor.gate.set()
    manager.close()


class TestFairRoundRobin:
    def _order(self, manager, executor, jobs):
        executor.wait_running(1)  # the gate job holds the dispatcher
        executor.gate.set()
        assert manager.scheduler.drain(timeout=60)
        owner = {
            spec.seed: job.client
            for job in jobs for spec in job.specs
        }
        return [owner[spec.seed] for spec in executor.calls[1:]]

    def test_clients_alternate(self, gated):
        manager, executor = gated
        manager.submit("gate", campaign(100))
        jobs = [
            manager.submit("alice", campaign(1, 2, 3)),
            manager.submit("bob", campaign(4, 5, 6)),
        ]
        assert self._order(manager, executor, jobs) == [
            "alice", "bob", "alice", "bob", "alice", "bob",
        ]

    def test_late_client_is_not_starved(self, gated):
        manager, executor = gated
        manager.submit("gate", campaign(100))
        jobs = [
            manager.submit("bulk", campaign(*range(1, 9))),
            manager.submit("smoke", campaign(9)),
        ]
        order = self._order(manager, executor, jobs)
        # the small client's only unit runs second, not ninth
        assert order.index("smoke") == 1


class TestOneUnitPerClient:
    def test_a_client_never_holds_two_dispatchers(self, tmp_path):
        manager = JobManager(ServiceConfig(workers=2, dispatchers=2))
        executor = GatedExecutor()
        manager.scheduler.executor = executor
        try:
            bulk = manager.submit("bulk", campaign(1, 2, 3))
            executor.wait_running(1)
            assert not executor.running.acquire(timeout=0.3)
            manager.submit("smoke", campaign(4))
            executor.wait_running(1)  # the idle dispatcher serves smoke
            assert [spec.seed for spec in executor.calls] == [1, 4]
            executor.gate.set()
            assert manager.scheduler.drain(timeout=60)
            assert bulk.state == "done"
        finally:
            executor.gate.set()
            manager.close()


class TestCoalescing:
    def test_concurrent_identical_units_execute_once(self, gated):
        manager, executor = gated
        first = manager.submit("alice", campaign(1, 2))
        second = manager.submit("bob", campaign(1, 2))
        executor.gate.set()
        assert manager.scheduler.drain(timeout=60)
        assert [spec.seed for spec in executor.calls] == [1, 2]
        assert first.state == second.state == "done"
        assert (first.executed, first.cache_hits) == (2, 0)
        assert (second.executed, second.cache_hits) == (0, 2)
        assert {unit["source"] for unit in second.results} == {"coalesced"}
        assert [u["record"] for u in first.results] == [
            u["record"] for u in second.results
        ]

    def test_a_failed_unit_leaves_the_table_and_runs_again(self, gated):
        manager, executor = gated
        executor.gate.set()
        calls = []

        def failing(spec):
            calls.append(spec)
            raise OSError("scripted")

        manager.scheduler.executor.execute = failing
        job = manager.submit("alice", campaign(1))
        assert manager.scheduler.drain(timeout=60)
        assert job.state == "failed"
        assert job.results[0]["failure"]["category"] == "internal"
        again = manager.submit("alice", campaign(1))
        assert manager.scheduler.drain(timeout=60)
        assert again.results[0]["source"] == "executed"
        assert len(calls) == 2


class TestCacheHits:
    def test_a_cache_hit_job_completes_while_every_dispatcher_is_busy(
        self, tmp_path
    ):
        manager = JobManager(
            ServiceConfig(
                workers=2, dispatchers=2, cache_dir=str(tmp_path / "cache")
            )
        )
        executor = GatedExecutor()
        manager.scheduler.executor = executor
        try:
            ResultCache(tmp_path / "cache").put(
                fake_record(RunSpec("RED", seed=7))
            )
            slow = [
                manager.submit("alice", campaign(1, 2)),
                manager.submit("bob", campaign(3, 4)),
            ]
            executor.wait_running(2)  # both dispatchers hold a unit
            hit = manager.submit("dave", campaign(7))
            assert hit.state == "done"
            assert hit.results[0]["source"] == "cache"
            assert [job.state for job in slow] == ["running", "running"]
            # the memo answers a resubmission at once, too
            executor.gate.set()
            assert manager.scheduler.drain(timeout=60)
            again = manager.submit("carol", campaign(1))
            assert again.state == "done"
            assert again.results[0]["source"] == "cache"
        finally:
            executor.gate.set()
            manager.close()

    def test_forensics_out_simulates_instead_of_serving_the_cache(
        self, tmp_path
    ):
        from repro.experiments.runner import Runner
        from repro.scor.apps.registry import app_by_name

        cache_dir = tmp_path / "cache"
        Runner(verbose=False, result_cache=ResultCache(cache_dir)).run(
            app_by_name("RED"), detector="none"
        )
        manager = JobManager(
            ServiceConfig(
                workers=1, dispatchers=1, cache_dir=str(cache_dir),
                forensics_dir=str(tmp_path / "forensics"),
            )
        )
        try:
            job = manager.submit("alice", {
                "schema": JOB_SCHEMA,
                "units": [{"app": "RED", "detector": "none"}],
            })
            assert manager.drain(timeout=120)
            report = manager.report_dict(job)
        finally:
            manager.close()
        assert report["units"][0]["source"] == "executed"
        assert [unit["unit"] for unit in report["forensics"]] == [
            "RED.none.default"
        ]

    def test_a_failed_cache_write_does_not_fail_the_unit(
        self, gated, monkeypatch
    ):
        manager, executor = gated

        def read_only(self, record):
            raise OSError(30, "Read-only file system")

        monkeypatch.setattr(ResultCache, "put", read_only)
        first = manager.submit("alice", campaign(1))
        second = manager.submit("bob", campaign(1))
        executor.gate.set()
        assert manager.scheduler.drain(timeout=60)
        assert first.state == second.state == "done"
        assert second.results[0]["source"] == "coalesced"
        assert second.results[0]["record"] == first.results[0]["record"]
        assert len(RunStore(manager.store.path).load()) == 1


class TestStatusDocument:
    def test_campaign_status_shape(self):
        job = Job(id="j1", client="alice", kind="campaign", created=1.0)
        job.results = [None, None]
        doc = job.status_dict()
        assert doc["schema"] == JOB_SCHEMA
        assert doc["state"] == "queued"
        assert doc["units_total"] == 2
        assert doc["report"] == "/v1/jobs/j1/report"
        assert "static" not in doc

    def test_program_status_carries_the_static_verdict(self):
        job = Job(id="j2", client="alice", kind="program", created=1.0)
        job.static = {"racy": False, "types": [], "rules": [],
                      "findings": 0}
        job.results = [None]
        doc = job.status_dict()
        assert doc["static"]["racy"] is False
        assert doc["units_total"] == 1
        assert "seeds" not in doc
