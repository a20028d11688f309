"""The mc oracle on the pool: same verdicts as the in-process floor.

``check_program(mc=True)`` sends its ``mc`` unit to a one-worker pool
and runs scolint and the sweep while it runs.  These tests pin that the
pooled check answers exactly what the floor answers, over a seeded
sample of the four fuzz-mc cost classes, and that the pool's fault
paths (a SIGKILLed worker, a poison unit, a degraded pool, one usable
CPU) keep the verdicts or surface as an ``mc-crash``, never a hang.
"""

from __future__ import annotations

import itertools
import os
import signal
import threading
import time

import pytest
from hypothesis import HealthCheck, Phase, Verbosity, given, settings
from hypothesis import seed as hypothesis_seed

import repro.fuzz.differential as differential
from repro.common.errors import RunFailedError
from repro.experiments.campaign import InProcessExecutor, ProgramSpec
from repro.experiments.faults import FaultPlan
from repro.experiments.supervisor import PoolConfig, PoolSupervisor
from repro.fuzz import Actor, Bug, FuzzProgram, PhaseKind, check_program
from repro.fuzz import Phase as ProgramPhase
from repro.fuzz.oracles import DEFAULT_MC_BUDGET, safe_mc_verdict
from repro.fuzz.strategies import programs
from repro.isa.scopes import Scope

RACY = FuzzProgram(2, 2, (
    ProgramPhase(PhaseKind.MUTEX, Actor(0, 0), Actor(1, 0), Bug.SKIP_SYNC),
))

#: sampled programs per cost class
PER_CLASS = 2


def cost_class(program: FuzzProgram) -> str:
    """The program's fuzz-mc cost class.

    A cross-block handoff whose poll a bug weakens (``polling``) or a
    race-free one (``handoff``) makes DPOR drain a large frontier; the
    rest split into racy and race-free.
    """
    bugs = {
        phase.bug for phase in program.phases
        if phase.kind is PhaseKind.HANDOFF and phase.span is Scope.DEVICE
    }
    if bugs & {Bug.WEAK_POLL, Bug.NARROW_ATOMIC}:
        return "polling"
    if bugs and not program.racy:
        return "handoff"
    return "racy" if program.racy else "race-free"


def _draws(seed: int):
    for chunk in itertools.count():
        drawn = []

        @hypothesis_seed(seed * 7919 + chunk)
        @settings(max_examples=8, deadline=None, database=None,
                  phases=[Phase.generate], verbosity=Verbosity.quiet,
                  suppress_health_check=list(HealthCheck))
        @given(programs())
        def collect(program):
            drawn.append(program)

        collect()
        yield from drawn


def sample(seed: int = 1) -> list:
    """The first PER_CLASS seeded draws of each cost class."""
    wanted = dict.fromkeys(("polling", "handoff", "racy", "race-free"),
                           PER_CLASS)
    chosen = []
    for program in _draws(seed):
        kind = cost_class(program)
        if wanted[kind]:
            wanted[kind] -= 1
            chosen.append(program)
            if not any(wanted.values()):
                return chosen


SAMPLE = sample()


def mc_unit(program: FuzzProgram) -> ProgramSpec:
    return ProgramSpec(program, "mc", budget=DEFAULT_MC_BUDGET)


def pooled_check(monkeypatch, supervisor, program, **kwargs):
    """``check_program(mc=True)`` with its mc unit on *supervisor*."""
    monkeypatch.setattr(differential, "_pool", supervisor)
    return check_program(program, mc=True, **kwargs)


def floor_check(monkeypatch, program, **kwargs):
    """``check_program(mc=True)`` on the in-process floor."""
    with monkeypatch.context() as patch:
        patch.setattr(differential, "mc_pool", lambda: None)
        return check_program(program, mc=True, **kwargs)


def pool_processes() -> list:
    """Live pool-worker pids that are children of this process."""
    me = os.getpid()
    pids = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as handle:
                ppid = int(handle.read().rsplit(")", 1)[-1].split()[1])
            with open(f"/proc/{name}/cmdline", "rb") as handle:
                cmdline = handle.read()
        except (OSError, IndexError, ValueError):
            continue
        if ppid == me and b"repro.experiments.pool" in cmdline:
            pids.append(int(name))
    return pids


@pytest.fixture(scope="module")
def pool():
    with PoolSupervisor(PoolConfig(workers=1)) as supervisor:
        yield supervisor


def test_the_sample_covers_every_cost_class():
    assert sorted({cost_class(p) for p in SAMPLE}) == [
        "handoff", "polling", "race-free", "racy",
    ]
    assert len(SAMPLE) == 4 * PER_CLASS


@pytest.mark.parametrize(
    "index", range(len(SAMPLE)),
    ids=[f"{cost_class(p)}-{i}" for i, p in enumerate(SAMPLE)],
)
def test_the_pooled_check_answers_what_the_floor_answers(
    pool, index, monkeypatch
):
    program = SAMPLE[index]
    before = pool.stats()["units_ok"]
    assert pool.execute(mc_unit(program)) == safe_mc_verdict(program)
    assert pooled_check(monkeypatch, pool, program) == floor_check(
        monkeypatch, program
    )
    assert pool.stats()["units_ok"] == before + 2


def test_a_pooled_disagreement_carries_the_floor_mc_dict(pool, monkeypatch):
    # A detector that cannot see races makes every oracle but scolint
    # miss: the classified result carries each oracle's verdict.
    pooled = pooled_check(monkeypatch, pool, RACY, detector="none")
    floor = floor_check(monkeypatch, RACY, detector="none")
    assert pooled["kind"] == "dynamic-miss"
    assert pooled == floor
    assert pooled["mc"] == safe_mc_verdict(RACY, detector="none")


def test_a_sigkilled_worker_is_replaced_and_the_verdict_unchanged(
    monkeypatch,
):
    expected = safe_mc_verdict(RACY)
    # Each schedule of the worker's exploration now pauses, so the kill
    # below lands while the worker is inside the mc unit.
    monkeypatch.setenv("REPRO_MC_TEST_SLEEP", "1.0")
    config = PoolConfig(workers=1, backoff_seconds=0.01)
    with PoolSupervisor(config) as supervisor:
        # Warm the worker so the unit starts as soon as it is sent.
        supervisor.execute(ProgramSpec(RACY, "dynamic"))
        (victim,) = [
            entry["pid"] for entry in supervisor.stats()["per_worker"].values()
            if entry["alive"]
        ]
        answer = {}
        thread = threading.Thread(
            target=lambda: answer.update(mc=supervisor.execute(mc_unit(RACY)))
        )
        thread.start()
        time.sleep(0.5)
        os.kill(victim, signal.SIGKILL)
        thread.join(timeout=120)
        assert not thread.is_alive()
        stats = supervisor.stats()
    assert answer["mc"] == expected
    assert stats["lost_workers"] == {"worker-crash": 1}
    assert stats["units_retried"] == 1
    assert stats["spawned"] == 2


def test_a_poison_unit_is_an_mc_crash_not_a_hang(monkeypatch):
    config = PoolConfig(workers=1, backoff_seconds=0.01)
    plan = FaultPlan.always("pool-kill", app="program")
    with PoolSupervisor(config, fault_plan=plan) as supervisor:
        started = time.monotonic()
        result = pooled_check(monkeypatch, supervisor, RACY)
        assert time.monotonic() - started < 60
        stats = supervisor.stats()
    assert result["kind"] == "mc-crash"
    assert result["detail"].startswith("poison-unit: ")
    assert result["mc"]["racy"] is None
    assert stats["lost_workers"] == {"worker-crash": config.poison_threshold}


def test_a_unit_deadline_is_a_timeout_not_a_verdict():
    # The unit's watchdog expires inside the exploration: the unit
    # fails as run-timeout instead of folding into an mc verdict.
    polling = next(p for p in SAMPLE if cost_class(p) == "polling")
    with pytest.raises(RunFailedError) as caught:
        InProcessExecutor(timeout=1e-6).execute(mc_unit(polling))
    assert caught.value.failure.category == "run-timeout"


class _Spy:
    """Counts in-process mc oracle calls (the floor's path)."""

    def __init__(self):
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return safe_mc_verdict(*args, **kwargs)


def _degraded_pool() -> PoolSupervisor:
    """A pool whose first worker death exhausted its restart budget."""
    config = PoolConfig(
        workers=1, max_worker_restarts=0, backoff_seconds=0.01
    )
    supervisor = PoolSupervisor(
        config, fault_plan=FaultPlan.always("pool-kill", app="program")
    )
    # The unit survives: its retry runs on the supervisor's own floor.
    assert supervisor.execute(mc_unit(RACY)) == safe_mc_verdict(RACY)
    assert supervisor.degraded
    return supervisor


def test_a_degraded_pool_takes_the_in_process_path(monkeypatch):
    supervisor = _degraded_pool()
    try:
        spy = _Spy()
        monkeypatch.setattr(differential, "safe_mc_verdict", spy)
        monkeypatch.setattr(differential, "_pool", supervisor)
        assert differential.mc_pool() is None
        for program in SAMPLE[:2]:
            assert check_program(program, mc=True) == floor_check(
                monkeypatch, program
            )
        assert spy.calls == 4
        assert supervisor.stats()["units_degraded"] == 1
    finally:
        supervisor.close()


def test_one_usable_cpu_takes_the_in_process_path(monkeypatch):
    spy = _Spy()
    monkeypatch.setattr(differential, "safe_mc_verdict", spy)
    monkeypatch.setattr(differential, "_pool", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    before = pool_processes()
    for program in SAMPLE[:2]:
        assert check_program(program, mc=True) == floor_check(
            monkeypatch, program
        )
    assert spy.calls == 4
    assert differential._pool is None
    assert pool_processes() == before


def test_the_shared_pool_starts_on_first_check_and_closes(monkeypatch):
    monkeypatch.setattr(differential, "_pool", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert check_program(RACY, mc=True) is None
    shared = differential._pool
    try:
        assert shared is not None
        assert shared.config.workers == 1
        assert shared.stats()["units_ok"] == 1
        assert differential.mc_pool() is shared
    finally:
        shared.close()
    assert differential.mc_pool() is None
    assert not [
        entry for entry in shared.stats()["per_worker"].values()
        if entry["alive"]
    ]
