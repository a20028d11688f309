"""Campaign resilience: checkpoint/resume, watchdogs, crash isolation.

These tests deliberately inject hangs, crashes, and corrupted store
entries (repro.experiments.faults) to prove the recovery paths behave as
specified — resume skips finished runs, a hang is timed out and retried,
exhausted retries degrade to FAILED cells, and corruption is quarantined.
The isolated paths run on the supervised worker pool, the campaign's
one isolated executor.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.common.errors import RunFailedError
from repro.experiments import fig8
from repro.experiments.campaign import CampaignRunner, RunSpec, _worker_env
from repro.experiments.faults import FaultPlan, FaultRule, corrupt_store
from repro.experiments.runner import Runner
from repro.experiments.store import RunStore, record_key
from repro.experiments.supervisor import PoolConfig, PoolSupervisor
from repro.scor.apps.matmul import MatMulApp
from repro.scor.apps.reduction import ReductionApp

_COMPARED_FIELDS = (
    "app", "detector", "memory", "races_enabled", "cycles", "dram_data",
    "dram_metadata", "unique_races", "race_types", "race_keys", "verified",
)


def same_simulation(a, b) -> bool:
    """Equality on everything deterministic (wall_seconds varies)."""
    return all(getattr(a, f) == getattr(b, f) for f in _COMPARED_FIELDS)


# ----------------------------------------------------------------------
# Checkpoint / resume (in-process)
# ----------------------------------------------------------------------
class TestCheckpointResume:
    def test_fresh_runs_are_checkpointed_and_resumed(self, tmp_path):
        store = RunStore(tmp_path / "store.jsonl")
        first = Runner(verbose=False, store=store)
        record = first.run(ReductionApp, detector="scord")
        assert first.fresh_runs == 1

        resumed = Runner(verbose=False, store=RunStore(store.path))
        assert resumed.resumed_runs == 1
        again = resumed.run(ReductionApp, detector="scord")
        assert resumed.fresh_runs == 0  # no re-simulation
        assert same_simulation(record, again)

    def test_resume_can_be_disabled(self, tmp_path):
        store = RunStore(tmp_path / "store.jsonl")
        Runner(verbose=False, store=store).run(ReductionApp)
        cold = Runner(verbose=False, store=RunStore(store.path),
                      preload=False)
        assert cold.resumed_runs == 0
        cold.run(ReductionApp)
        assert cold.fresh_runs == 1

    def test_corrupt_entry_quarantined_on_resume(self, tmp_path):
        """Resume must survive a corrupt line and re-simulate only it."""
        store = RunStore(tmp_path / "store.jsonl")
        first = Runner(verbose=False, store=store)
        kept = first.run(ReductionApp, detector="none")
        first.run(ReductionApp, detector="scord")
        corrupt_store(store.path, line=1, mode="truncate")

        fresh_store = RunStore(store.path)
        resumed = Runner(verbose=False, store=fresh_store)
        assert fresh_store.quarantined == 1
        assert resumed.resumed_runs == 1  # the intact record survived
        assert same_simulation(
            resumed.run(ReductionApp, detector="none"), kept
        )
        assert resumed.fresh_runs == 0
        resumed.run(ReductionApp, detector="scord")  # re-simulates the lost one
        assert resumed.fresh_runs == 1


# ----------------------------------------------------------------------
# SIGKILL mid-campaign, then resume
# ----------------------------------------------------------------------
_DRIVER = """
import sys, time
from repro.experiments.runner import Runner
from repro.experiments.store import RunStore
from repro.scor.apps.matmul import MatMulApp

runner = Runner(verbose=False, store=RunStore(sys.argv[1]))
for detector in ("none", "base", "scord"):
    runner.run(MatMulApp, detector=detector)
    time.sleep(0.5)  # widen the kill window between checkpoints
"""


class TestKilledCampaign:
    def test_sigkill_then_resume_skips_finished_runs(self, tmp_path):
        store_path = str(tmp_path / "store.jsonl")
        proc = subprocess.Popen(
            [sys.executable, "-c", _DRIVER, store_path],
            env=_worker_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        # Wait for at least one durable checkpoint, then kill -9.
        deadline = time.time() + 60
        while time.time() < deadline:
            if os.path.exists(store_path):
                with open(store_path) as handle:
                    if handle.read().count("\n") >= 1:
                        break
            if proc.poll() is not None:
                break
            time.sleep(0.01)
        proc.kill()
        proc.wait()

        completed = len(RunStore(store_path).load())
        assert completed >= 1  # the campaign was genuinely interrupted

        resumed = Runner(verbose=False, store=RunStore(store_path))
        assert resumed.resumed_runs == completed
        for detector in ("none", "base", "scord"):
            resumed.run(MatMulApp, detector=detector)
        # Finished runs were not re-simulated...
        assert resumed.fresh_runs == 3 - completed
        # ...and the combined results match an uninterrupted campaign.
        uninterrupted = Runner(verbose=False)
        for detector in ("none", "base", "scord"):
            assert same_simulation(
                resumed.run(MatMulApp, detector=detector),
                uninterrupted.run(MatMulApp, detector=detector),
            )


# ----------------------------------------------------------------------
# Fault injection through the worker pool
# ----------------------------------------------------------------------
def pool_config(timeout, max_retries=1, **overrides):
    """One worker with fast backoff; *overrides* tune the policy."""
    return PoolConfig(
        workers=1, unit_timeout=timeout, max_retries=max_retries,
        backoff_seconds=0.01, **overrides,
    )


def assert_timeouts_spared_the_pool(stats):
    """Timeouts recycle workers for free: no budget, no poison, no loss."""
    assert stats["restarts"] == 0
    assert stats["lost_workers"] == {}
    assert stats["poisoned_units"] == {}
    assert not stats["degraded"]
    assert stats["units_degraded"] == 0


class TestFaultInjection:
    def test_injected_hang_is_timed_out_and_retried(self):
        """Hang on attempt 1, behave on attempt 2: the run succeeds."""
        with PoolSupervisor(
            pool_config(timeout=5.0),
            fault_plan=FaultPlan.once("hang", app="RED"),
        ) as sup:
            started = time.time()
            record = sup.execute(RunSpec("RED"))
            elapsed = time.time() - started
            stats = sup.stats()
        assert record.app == "RED"
        assert elapsed >= 5.0  # the first attempt really hit the timeout
        assert stats["timeout_recycles"] == 1
        assert stats["units_retried"] == 1
        assert_timeouts_spared_the_pool(stats)

    def test_exhausted_retries_raise_structured_failure(self):
        # poison_threshold above the attempt count: the crash category
        # itself, not the quarantine, is what the failure reports.
        with PoolSupervisor(
            pool_config(timeout=10.0, poison_threshold=3),
            fault_plan=FaultPlan.always("crash"),
        ) as sup:
            with pytest.raises(RunFailedError) as excinfo:
                sup.execute(RunSpec("RED"))
        failure = excinfo.value.failure
        assert failure.category == "worker-crash"
        assert failure.attempts == 2
        assert failure.spec.app == "RED"
        assert excinfo.value.code == "worker-crash"

    def test_injected_simulation_error_is_classified(self):
        with PoolSupervisor(
            pool_config(timeout=10.0, max_retries=0),
            fault_plan=FaultPlan.always("error"),
        ) as sup:
            with pytest.raises(RunFailedError) as excinfo:
                sup.execute(RunSpec("RED"))
        assert excinfo.value.failure.category == "simulation"
        assert "injected fault" in excinfo.value.failure.message

    def test_fault_plan_matching(self):
        plan = FaultPlan(
            (FaultRule(("hang", None), app="RED", detector="scord"),)
        )
        assert plan.action_for("RED", "scord", "default", 1) == "hang"
        assert plan.action_for("RED", "scord", "default", 2) is None
        assert plan.action_for("RED", "base", "default", 1) is None
        assert plan.action_for("MM", "scord", "default", 1) is None

    def test_every_attempt_timing_out_fails_as_run_timeout(self):
        """A unit over its timeout on every attempt is run-timeout, not
        poison-unit, and never costs the restart budget."""
        with PoolSupervisor(
            pool_config(timeout=2.0, max_worker_restarts=0),
            fault_plan=FaultPlan.always("hang", app="RED"),
        ) as sup:
            with pytest.raises(RunFailedError) as excinfo:
                sup.execute(RunSpec("RED"))
            stats = sup.stats()
        assert excinfo.value.failure.category == "run-timeout"
        assert excinfo.value.failure.attempts == 2
        assert stats["timeout_recycles"] == 2
        assert_timeouts_spared_the_pool(stats)

    def test_watchdog_expiry_in_the_worker_is_a_run_timeout(self):
        """The worker's watchdog enforces the same unit timeout.

        It fires at 80% of the timeout (1.6 s here), normally before the
        parent's deadline; whichever wins, the category is the same.
        """
        with PoolSupervisor(pool_config(timeout=2.0, max_retries=0)) as sup:
            with pytest.raises(RunFailedError) as excinfo:
                sup.execute(RunSpec("UTS", "scord"))  # a ~3 s unit
            stats = sup.stats()
        assert excinfo.value.failure.category == "run-timeout"
        assert_timeouts_spared_the_pool(stats)


# ----------------------------------------------------------------------
# Graceful degradation in the exhibits
# ----------------------------------------------------------------------
class TestDegradation:
    def test_failed_run_renders_failed_cell_others_survive(
        self, monkeypatch
    ):
        """RED hangs every attempt; MM's cells still render."""
        monkeypatch.setattr(fig8, "ALL_APPS", [MatMulApp, ReductionApp])
        with PoolSupervisor(
            pool_config(timeout=2.0, max_retries=0),
            fault_plan=FaultPlan.always("hang", app="RED"),
        ) as sup:
            runner = CampaignRunner(sup, verbose=False)
            result = fig8.run_fig8(runner)
            stats = sup.stats()
        rendered = result.render()
        assert "FAILED(run-timeout)" in rendered
        # The healthy app's row and the average still render numerically.
        mm_row = next(r for r in result.rows if r[0] == "MM")
        assert isinstance(mm_row[1], float)
        assert result.scord_average > 0
        # The chart silently skips the failed rows.
        assert "MM" in result.chart()
        # The failure is recorded for the CLI's manifest.
        assert [f.spec.app for f in runner.failures] == ["RED"]
        assert runner.failures[0].category == "run-timeout"
        assert_timeouts_spared_the_pool(stats)

    def test_campaign_runner_memoizes_and_persists_once(self, tmp_path):
        store = RunStore(tmp_path / "store.jsonl")
        with PoolSupervisor(pool_config(timeout=30.0)) as sup:
            runner = CampaignRunner(sup, verbose=False, store=store)
            first = runner.run(ReductionApp, detector="none")
            second = runner.run(ReductionApp, detector="none")
        assert first is second
        assert runner.fresh_runs == 1
        assert record_key(first) in store.load()
        # Exactly one line: the parent persisted the fresh record once;
        # the memoized second call did not re-append (and the worker
        # never touches the store at all).
        with open(store.path) as handle:
            assert handle.read().count("\n") == 1
