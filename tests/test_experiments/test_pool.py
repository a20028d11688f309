"""The warm worker pool: frame protocol, worker handles, supervision.

Layered like the implementation: pure frame codec tests first, then the
parent-side reader against real pipes, then one live worker process,
then the supervisor's policy (recycling, retry, poison, degradation) —
every recovery path driven by injected faults, not assumed.
"""

import io
import os
import threading
import time

import pytest

from repro.common.errors import (
    PoolExhausted,
    ProtocolDesync,
    RunFailedError,
    RunTimeout,
    SlowLorisWorker,
    WorkerCrash,
    WorkerHang,
)
from repro.experiments.campaign import RunSpec
from repro.experiments.faults import ChaosPlan, FaultPlan
from repro.experiments.parallel import ParallelCampaignExecutor
from repro.experiments.pool import (
    FrameTimeout,
    MAX_FRAME_BYTES,
    WorkerHandle,
    _FrameReader,
    _LEN,
    encode_frame,
    read_frame,
)
from repro.experiments.runner import Runner
from repro.experiments.store import RunStore, semantic_record_dict
from repro.experiments.supervisor import PoolConfig, PoolSupervisor
from repro.scor.apps.registry import app_by_name

FAST = RunSpec("RED", "none", "default")  # cheapest real simulation


def expected_record(spec):
    """What a clean in-process run of *spec* produces."""
    record = Runner(verbose=False).run(
        app_by_name(spec.app), detector=spec.detector,
        memory=spec.memory, races=spec.races, seed=spec.seed,
    )
    return semantic_record_dict(record)


# ----------------------------------------------------------------------
# Frame codec (pure)
# ----------------------------------------------------------------------
class TestFrameCodec:
    def test_roundtrip(self):
        payload = {"type": "run", "id": 7, "spec": {"app": "RED"}}
        stream = io.BytesIO(encode_frame(payload))
        assert read_frame(stream) == payload

    def test_back_to_back_frames(self):
        stream = io.BytesIO(
            encode_frame({"id": 1}) + encode_frame({"id": 2})
        )
        assert read_frame(stream) == {"id": 1}
        assert read_frame(stream) == {"id": 2}
        assert read_frame(stream) is None  # clean EOF at a boundary

    def test_torn_prefix_is_desync(self):
        stream = io.BytesIO(b"\x00\x00")
        with pytest.raises(ProtocolDesync):
            read_frame(stream)

    def test_torn_body_is_desync(self):
        frame = encode_frame({"id": 1})
        stream = io.BytesIO(frame[: len(frame) - 3])
        with pytest.raises(ProtocolDesync):
            read_frame(stream)

    def test_absurd_length_is_desync(self):
        stream = io.BytesIO(_LEN.pack(MAX_FRAME_BYTES + 1) + b"x")
        with pytest.raises(ProtocolDesync):
            read_frame(stream)

    def test_garbage_body_is_desync(self):
        stream = io.BytesIO(_LEN.pack(4) + b"\xde\xad\xbe\xef")
        with pytest.raises(ProtocolDesync):
            read_frame(stream)


# ----------------------------------------------------------------------
# The deadline-aware parent-side reader, over real pipes
# ----------------------------------------------------------------------
class TestFrameReader:
    @pytest.fixture()
    def pipe(self):
        read_fd, write_fd = os.pipe()
        yield read_fd, write_fd
        for fd in (read_fd, write_fd):
            try:
                os.close(fd)
            except OSError:
                pass

    def test_whole_frame(self, pipe):
        read_fd, write_fd = pipe
        os.write(write_fd, encode_frame({"id": 1}))
        assert _FrameReader(read_fd).read(5.0) == {"id": 1}

    def test_silence_is_frame_timeout(self, pipe):
        read_fd, _ = pipe
        with pytest.raises(FrameTimeout):
            _FrameReader(read_fd).read(0.1)

    def test_partial_trickle_is_slow_loris(self, pipe):
        read_fd, write_fd = pipe
        os.write(write_fd, _LEN.pack(4096) + b"...")  # never completes
        with pytest.raises(SlowLorisWorker):
            _FrameReader(read_fd).read(0.2)

    def test_eof_is_worker_crash(self, pipe):
        read_fd, write_fd = pipe
        os.close(write_fd)
        with pytest.raises(WorkerCrash):
            _FrameReader(read_fd).read(1.0)

    def test_frame_split_across_writes(self, pipe):
        read_fd, write_fd = pipe
        frame = encode_frame({"id": 3})

        def dribble():
            for i in range(len(frame)):
                os.write(write_fd, frame[i:i + 1])
                time.sleep(0.002)

        writer = threading.Thread(target=dribble, daemon=True)
        writer.start()
        assert _FrameReader(read_fd).read(5.0) == {"id": 3}
        writer.join()


# ----------------------------------------------------------------------
# One live worker process
# ----------------------------------------------------------------------
class TestWorkerHandle:
    def test_warm_worker_serves_units_and_matches_in_process(self):
        handle = WorkerHandle(0)
        handle.spawn()
        try:
            pid = handle.pid
            first = handle.run_unit(FAST, deadline=60)
            second = handle.run_unit(
                RunSpec("RED", "scord", "default"), deadline=60
            )
            # Same process served both (warm reuse, no respawn)...
            assert handle.pid == pid
            assert handle.units_served == 2
            # ...and each unit matches a cold in-process simulation.
            assert semantic_record_dict(first) == expected_record(FAST)
            assert semantic_record_dict(second) == expected_record(
                RunSpec("RED", "scord", "default")
            )
        finally:
            handle.shutdown()
        assert not handle.alive
        assert handle.proc.returncode == 0  # graceful, not killed

    def test_heartbeats_keep_a_slow_unit_alive(self):
        """A unit longer than the silence window survives via heartbeats."""
        slow = RunSpec("UTS", "scord", "default")  # ~3s simulation
        handle = WorkerHandle(0)
        handle.spawn()
        try:
            record = handle.run_unit(
                slow, deadline=120,
                heartbeat_timeout=0.5, heartbeat_seconds=0.05,
            )
            assert record.wall_seconds > 0.5  # outlived the window
            assert handle.heartbeats_seen > 0
        finally:
            handle.shutdown()

    def test_structured_error_is_rehydrated(self):
        handle = WorkerHandle(0)
        handle.spawn()
        try:
            with pytest.raises(Exception) as excinfo:
                handle.run_unit(RunSpec("NOSUCHAPP"), deadline=60)
            assert getattr(excinfo.value, "code", None) == "config"
            # The worker survives a unit-level error (only the unit died).
            assert handle.alive
            record = handle.run_unit(FAST, deadline=60)
            assert semantic_record_dict(record) == expected_record(FAST)
        finally:
            handle.shutdown()

    @pytest.mark.parametrize(
        "action,deadline,heartbeat_timeout,expected",
        [
            ("pool-kill", 30, 1.0, WorkerCrash),
            ("pool-hang", 30, 1.0, WorkerHang),
            ("pool-frame", 30, 1.0, ProtocolDesync),
            ("pool-loris", 30, 1.0, SlowLorisWorker),
            # The deadline, not the silence window, bounded the read.
            ("pool-hang", 1, 10, RunTimeout),
        ],
        ids=[
            "pool-kill-WorkerCrash", "pool-hang-WorkerHang",
            "pool-frame-ProtocolDesync", "pool-loris-SlowLorisWorker",
            "pool-hang-deadline-RunTimeout",
        ],
    )
    def test_fault_actions_map_to_distinct_codes(
        self, action, deadline, heartbeat_timeout, expected
    ):
        handle = WorkerHandle(0)
        handle.spawn()
        try:
            with pytest.raises(expected):
                handle.run_unit(
                    FAST, deadline=deadline, fault=action,
                    heartbeat_timeout=heartbeat_timeout,
                )
        finally:
            handle.kill()


# ----------------------------------------------------------------------
# The supervisor: policy over the mechanism
# ----------------------------------------------------------------------
class TestPoolSupervisor:
    def test_execute_matches_in_process_and_counts(self):
        with PoolSupervisor(PoolConfig(workers=1, unit_timeout=60)) as sup:
            record = sup.execute(FAST)
            assert semantic_record_dict(record) == expected_record(FAST)
            stats = sup.stats()
        assert stats["units_ok"] == 1
        assert stats["spawned"] == 1
        assert stats["restarts"] == 0
        assert not stats["degraded"]

    def test_fault_recycles_worker_and_retries_unit(self):
        config = PoolConfig(
            workers=1, unit_timeout=30, heartbeat_timeout=2.0,
            backoff_seconds=0.01,
        )
        plan = FaultPlan.once("pool-kill")
        with PoolSupervisor(config, fault_plan=plan) as sup:
            record = sup.execute(FAST)
            stats = sup.stats()
        assert semantic_record_dict(record) == expected_record(FAST)
        assert stats["lost_workers"] == {"worker-crash": 1}
        assert stats["units_retried"] == 1
        assert stats["restarts"] == 1

    def test_deterministic_config_error_is_not_retried(self):
        with PoolSupervisor(
            PoolConfig(workers=1, unit_timeout=60, max_retries=3)
        ) as sup:
            with pytest.raises(RunFailedError) as excinfo:
                sup.execute(RunSpec("NOSUCHAPP"))
            stats = sup.stats()
        assert excinfo.value.failure.category == "config"
        assert excinfo.value.failure.attempts == 1  # no retry burned
        assert stats["units_retried"] == 0

    def test_poison_unit_is_quarantined_not_pool_wedging(self):
        config = PoolConfig(
            workers=1, unit_timeout=30, heartbeat_timeout=2.0,
            backoff_seconds=0.01, max_retries=4,
            poison_threshold=2, max_worker_restarts=16,
        )
        plan = FaultPlan.always("pool-kill")
        with PoolSupervisor(config, fault_plan=plan) as sup:
            with pytest.raises(RunFailedError) as excinfo:
                sup.execute(FAST)
            # Quarantine is sticky: a later attempt fails immediately.
            with pytest.raises(RunFailedError) as again:
                sup.execute(FAST)
            stats = sup.stats()
        assert excinfo.value.code == "poison-unit"
        assert again.value.code == "poison-unit"
        assert stats["poisoned_units"] == {FAST.describe(): "worker-crash"}
        # The quarantine capped the damage at the poison threshold.
        assert stats["restarts"] == config.poison_threshold
        # A healthy unit still runs after the quarantine.
        with PoolSupervisor(config) as sup:
            assert sup.execute(FAST).app == "RED"

    def test_closed_pool_refuses_work(self):
        sup = PoolSupervisor(PoolConfig(workers=1, unit_timeout=60))
        sup.execute(FAST)
        sup.close()
        with pytest.raises(PoolExhausted):
            sup.execute(FAST)

    def test_restart_budget_exhaustion_degrades_to_in_process(self):
        config = PoolConfig(
            workers=1, unit_timeout=30, heartbeat_timeout=2.0,
            backoff_seconds=0.01, max_retries=1,
            max_worker_restarts=0, poison_threshold=10,
        )
        plan = FaultPlan.once("pool-kill")
        with PoolSupervisor(config, fault_plan=plan) as sup:
            # Attempt 1 kills the worker; the zero-restart budget is
            # blown, so the retry lands on the in-process floor.
            record = sup.execute(FAST)
            assert sup.degraded
            # Subsequent units go straight in-process, no spawn attempts.
            spawned_before = sup.stats()["spawned"]
            other = sup.execute(RunSpec("RED", "scord", "default"))
            stats = sup.stats()
        assert semantic_record_dict(record) == expected_record(FAST)
        assert semantic_record_dict(other) == expected_record(
            RunSpec("RED", "scord", "default")
        )
        assert stats["degraded"]
        assert stats["units_degraded"] == 2
        assert stats["spawned"] == spawned_before


# ----------------------------------------------------------------------
# Store integrity under worker faults (the torn-line regression)
# ----------------------------------------------------------------------
class TestStoreIntegrityUnderFaults:
    def test_crashing_workers_cannot_corrupt_the_store(self, tmp_path):
        """Workers are killed mid-campaign; every store line stays whole.

        Persistence is parent-side only — a worker never opens the
        store — so even SIGKILL mid-unit must leave the JSONL file
        parseable with zero quarantined lines.
        """
        store = RunStore(tmp_path / "store.jsonl")
        units = [
            RunSpec("RED", detector, "default", seed=seed)
            for detector in ("none", "scord") for seed in (1, 2)
        ]
        config = PoolConfig(
            workers=2, unit_timeout=30, heartbeat_timeout=2.0,
            backoff_seconds=0.01, max_worker_restarts=16,
        )
        chaos = ChaosPlan("pool-kill", every=2)
        with PoolSupervisor(config, fault_plan=chaos) as sup:
            parallel = ParallelCampaignExecutor(
                sup, jobs=2, store=store, verbose=False
            )
            outcome = parallel.run_units(units)
            stats = sup.stats()
        assert chaos.injected >= 1  # workers really were SIGKILLed
        assert sum(stats["lost_workers"].values()) == chaos.injected
        assert not outcome.failures
        # Reload from disk: every line parses, nothing quarantined.
        reloaded = RunStore(store.path)
        records = reloaded.load()
        assert reloaded.quarantined == 0
        assert len(records) == len(units)
