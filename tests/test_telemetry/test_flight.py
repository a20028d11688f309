"""Unit tests for the flight recorder (repro.telemetry.flight)."""

import pytest

from repro.telemetry import (
    NULL_FLIGHT,
    FlightConfig,
    FlightRecorder,
    Telemetry,
    TraceConfig,
)


def _fill(recorder, count, block=0, warp=0, addr=0x10):
    for i in range(count):
        recorder.record_access(
            cycle=i, kind="st", block_id=block, warp_id=warp,
            addr=addr, strong=True, scope=None, pc=("k", 1),
            array="data", lane_id=0,
        )


class TestFlightConfig:
    def test_defaults(self):
        config = FlightConfig()
        assert config.mode == "ring"
        assert config.capacity == 65536

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            FlightConfig(mode="circular")

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            FlightConfig(capacity=0)

    def test_dict_roundtrip(self):
        config = FlightConfig(mode="full", capacity=128)
        assert FlightConfig.from_dict(config.to_dict()) == config


class TestRingMode:
    def test_ring_evicts_oldest(self):
        recorder = FlightRecorder(FlightConfig(mode="ring", capacity=8))
        _fill(recorder, 20)
        assert len(recorder.events) == 8
        assert recorder.recorded == 20
        assert recorder.dropped == 12
        # The survivors are the newest events.
        assert [e.cycle for e in recorder.snapshot()] == list(range(12, 20))

    def test_full_mode_keeps_everything(self):
        recorder = FlightRecorder(FlightConfig(mode="full"))
        _fill(recorder, 20)
        assert len(recorder.events) == 20
        assert recorder.dropped == 0


class TestSlicing:
    def test_slice_by_addr_and_warp(self):
        recorder = FlightRecorder(FlightConfig(mode="full"))
        _fill(recorder, 3, block=0, warp=0, addr=0x10)
        _fill(recorder, 3, block=1, warp=0, addr=0x99)
        got = recorder.slice_for(addr=0x10)
        assert all(e.addr == 0x10 for e in got)
        got = recorder.slice_for(warps=[(1, 0)])
        assert all(e.block_id == 1 for e in got)

    def test_slice_until_and_limit(self):
        recorder = FlightRecorder(FlightConfig(mode="full"))
        _fill(recorder, 50)
        got = recorder.slice_for(addr=0x10, until=30, limit=5)
        assert len(got) == 5
        assert all(e.cycle <= 30 for e in got)

    def test_last_sync_prefers_latest(self):
        recorder = FlightRecorder(FlightConfig(mode="full"))
        recorder.record_sync(5, "fence", 0, 0, scope="block")
        recorder.record_sync(9, "fence", 0, 0, scope="device")
        recorder.record_sync(12, "fence", 1, 0, scope="device")
        found = recorder.last_sync_for(0, 0)
        assert found is not None and found.cycle == 9

    def test_last_sync_counts_block_wide_barriers(self):
        recorder = FlightRecorder(FlightConfig(mode="full"))
        recorder.record_sync(7, "barrier", 3, -1)
        found = recorder.last_sync_for(3, 0)
        assert found is not None and found.kind == "barrier"


class TestExport:
    def test_collect_metrics_names(self):
        recorder = FlightRecorder(FlightConfig(mode="ring", capacity=4))
        _fill(recorder, 6)
        recorder.record_race(9, {})
        metrics = recorder.collect_metrics()
        assert metrics["flight.events.recorded"] == 7.0
        assert metrics["flight.events.dropped"] == 3.0
        assert metrics["flight.races"] == 1.0


class TestNullRecorder:
    def test_null_records_nothing(self):
        NULL_FLIGHT.record_access(
            cycle=0, kind="st", block_id=0, warp_id=0, addr=0,
            strong=True, scope=None, pc=None, array=None, lane_id=0,
        )
        NULL_FLIGHT.record_sync(0, "fence", 0, 0)
        NULL_FLIGHT.record_race(0, {})
        assert NULL_FLIGHT.recorded == 0
        assert not NULL_FLIGHT.enabled

    def test_telemetry_defaults_to_null(self):
        telemetry = Telemetry(TraceConfig(enabled=False))
        assert telemetry.flight is NULL_FLIGHT

    def test_engine_installs_no_capture_without_flight(self):
        from repro.arch.detector_config import DetectorConfig
        from repro.scor.micro.base import run_micro
        from repro.scor.micro.registry import micro_by_name

        gpu = run_micro(
            micro_by_name("fence_missing_cross_block"),
            detector_config=DetectorConfig.scord(),
        )
        assert gpu.flight_capture is None


class TestTelemetryIntegration:
    def test_collector_follows_recorder_swap(self):
        telemetry = Telemetry(
            TraceConfig(enabled=False), flight=FlightConfig(mode="full")
        )
        _fill(telemetry.flight, 3)
        assert telemetry.metrics.snapshot()["flight.events.recorded"] == 3.0
        # The Runner swaps in a fresh per-unit recorder; the registered
        # collector must read through to the live one.
        telemetry.flight = FlightRecorder(FlightConfig(mode="full"))
        _fill(telemetry.flight, 1)
        assert telemetry.metrics.snapshot()["flight.events.recorded"] == 1.0
