"""Program units on the daemon's pool: isolation, timeout, same verdicts.

A program job's one unit (one ScoRD run of the program) runs in a pool
worker like a campaign unit, so ``--timeout`` bounds it and a unit
that overruns costs its worker, not the daemon.
"""

from __future__ import annotations

import pytest

from repro.experiments.campaign import InProcessExecutor
from repro.experiments.faults import FaultPlan
from repro.fuzz import Actor, Bug, FuzzProgram, Phase, PhaseKind
from repro.fuzz.oracles import dynamic_verdict
from repro.service.jobs import JobManager, ServiceConfig
from repro.service.schemas import JOB_SCHEMA

CLEAN = FuzzProgram(2, 2, (
    Phase(PhaseKind.HANDOFF, Actor(0, 0), Actor(1, 0)),
))
RACY = FuzzProgram(2, 2, (
    Phase(PhaseKind.HANDOFF, Actor(0, 0), Actor(1, 0), Bug.NO_FENCE),
))


def program_job(program):
    return {
        "schema": JOB_SCHEMA,
        "program": program.to_dict(),
        "on_static_race": "accept",
    }


@pytest.fixture()
def managers():
    made = []

    def make(**fields):
        manager = JobManager(ServiceConfig(**fields))
        made.append(manager)
        return manager

    yield make
    for manager in made:
        manager.close()


def test_an_overrunning_program_unit_times_out_and_its_worker_is_replaced(
    managers,
):
    manager = managers(workers=1, dispatchers=1, unit_timeout=1.0)
    supervisor = manager.supervisor
    supervisor.config.backoff_seconds = 0.01
    supervisor.fault_plan = FaultPlan.always("pool-hang", app="program")
    job = manager.submit("alice", program_job(CLEAN))
    assert manager.scheduler.drain(timeout=60)
    assert job.state == "failed"
    failure = job.results[0]["failure"]
    assert failure["category"] == "run-timeout"
    assert failure["app"] == "program"
    assert failure["seed"] is None
    stats = supervisor.stats()
    assert stats["timeout_recycles"] == supervisor.config.max_retries + 1
    assert stats["restarts"] == 0

    supervisor.fault_plan = None
    after = manager.submit("alice", program_job(CLEAN))
    assert manager.scheduler.drain(timeout=60)
    assert after.state == "done"
    assert after.results[0]["verdict"] == dynamic_verdict(CLEAN)
    assert supervisor.stats()["spawned"] == stats["spawned"] + 1


class _CrashingOnce(InProcessExecutor):
    """Answers its first unit with a simulator-crash verdict."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def execute(self, spec):
        self.calls += 1
        if self.calls == 1:
            return {"error": "SimulationError: boom", "racy": None,
                    "types": []}
        return super().execute(spec)


def test_a_crash_verdict_fails_the_unit_and_a_resubmission_reruns_it(
    managers,
):
    manager = managers(workers=1, dispatchers=1)
    executor = manager.scheduler.executor = _CrashingOnce()
    job = manager.submit("alice", program_job(CLEAN))
    assert manager.scheduler.drain(timeout=60)
    assert job.state == "failed"
    failure = job.results[0]["failure"]
    assert failure["category"] == "simulation"
    assert failure["app"] == "program"
    assert "boom" in failure["message"]

    again = manager.submit("alice", program_job(CLEAN))
    assert manager.scheduler.drain(timeout=60)
    assert again.state == "done"
    assert executor.calls == 2
    assert again.results[0]["verdict"] == dynamic_verdict(CLEAN)


def test_a_program_verdict_is_the_same_on_the_pool_and_in_process(
    managers,
):
    pooled = managers(workers=2, dispatchers=2)
    floor = managers(workers=1, dispatchers=1)
    floor.scheduler.executor = InProcessExecutor()
    reports = []
    for manager in (pooled, floor):
        job = manager.submit("alice", program_job(RACY))
        assert manager.scheduler.drain(timeout=120)
        assert job.state == "done"
        reports.append(manager.report_dict(job))
    on_pool, in_process = reports
    assert on_pool["dynamic"] == in_process["dynamic"]
    assert on_pool["dynamic"] == on_pool["units"][0]["verdict"]
    assert on_pool["dynamic"]["racy"] is True
    assert [u["verdict"] for u in on_pool["units"]] == [
        u["verdict"] for u in in_process["units"]
    ]
    assert [u["unit"] for u in on_pool["units"]] == [
        u["unit"] for u in in_process["units"]
    ]
    assert on_pool["pool"]["units_ok"] == 1
    assert in_process["pool"]["spawned"] == 0
