"""Access recording through ring-mode flight capture, and race-report
export."""

import json

import pytest

from repro.arch.detector_config import DetectorConfig
from repro.engine.gpu import GPU
from repro.isa.scopes import Scope
from repro.telemetry import FlightConfig, Telemetry, TraceConfig


def _ring_gpu(capacity=10_000):
    return GPU(
        detector_config=DetectorConfig.scord(),
        telemetry=Telemetry(
            TraceConfig(enabled=False),
            flight=FlightConfig(mode="ring", capacity=capacity),
        ),
    )


@pytest.fixture
def traced_gpu():
    return _ring_gpu()


def racey_kernel(ctx, data):
    if ctx.gtid == 0:
        yield ctx.st(data, 0, 1, volatile=True)
        yield ctx.fence(Scope.BLOCK)
    elif ctx.gtid == ctx.ntid:
        yield ctx.compute(800)
        yield ctx.ld(data, 0, volatile=True)
        yield ctx.atomic_add(data, 1, 1)


class TestTracing:
    def test_events_recorded_in_order(self, traced_gpu):
        data = traced_gpu.alloc(2, "data")
        traced_gpu.launch(racey_kernel, grid=2, block_dim=8, args=(data,))
        events = traced_gpu.telemetry.flight.snapshot()
        kinds = [e.kind for e in events]
        assert "st" in kinds and "ld" in kinds
        assert "fence" in kinds and "atom" in kinds
        cycles = [e.cycle for e in events]
        assert cycles == sorted(cycles)

    def test_filtering(self, traced_gpu):
        data = traced_gpu.alloc(2, "data")
        traced_gpu.launch(racey_kernel, grid=2, block_dim=8, args=(data,))
        flight = traced_gpu.telemetry.flight
        word1 = flight.slice_for(addr=data.addr(1))
        assert word1
        assert all(e.addr == data.addr(1) for e in word1)
        assert any(e.kind == "atom" for e in word1)
        accesses = [e for e in flight.events if e.array is not None]
        assert {e.array for e in accesses} == {"data"}

    def test_detection_still_works_through_the_wrapper(self, traced_gpu):
        data = traced_gpu.alloc(2, "data")
        traced_gpu.launch(racey_kernel, grid=2, block_dim=8, args=(data,))
        assert traced_gpu.races.unique_count >= 1

    def test_bounded_trace_drops_oldest(self):
        gpu = _ring_gpu(capacity=5)
        data = gpu.alloc(8, "data")

        def many(ctx, data):
            for i in range(8):
                yield ctx.st(data, i, i, volatile=True)

        gpu.launch(many, grid=1, block_dim=1, args=(data,))
        flight = gpu.telemetry.flight
        assert len(flight.events) == 5
        assert flight.dropped > 0
        # The survivors are the newest stores.
        assert [e.addr for e in flight.events if e.kind == "st"][-1] == (
            data.addr(7)
        )

    def test_dump_is_readable(self, traced_gpu):
        data = traced_gpu.alloc(2, "data")
        traced_gpu.launch(racey_kernel, grid=2, block_dim=8, args=(data,))
        dump = "\n".join(
            event.describe()
            for event in traced_gpu.telemetry.flight.snapshot()[-10:]
        )
        assert "data" in dump
        assert "b0w0" in dump


class TestReportExport:
    def _run(self):
        gpu = GPU(detector_config=DetectorConfig.scord())
        data = gpu.alloc(2, "data")
        gpu.launch(racey_kernel, grid=2, block_dim=8, args=(data,))
        return gpu

    def test_to_dicts(self):
        gpu = self._run()
        dicts = gpu.races.to_dicts()
        assert dicts
        first = dicts[0]
        assert set(first) >= {"type", "array", "kernel", "line", "cycle"}
        assert first["array"] == "data"

    def test_save_json_roundtrip(self, tmp_path):
        gpu = self._run()
        path = tmp_path / "races.json"
        gpu.races.save_json(path)
        loaded = json.loads(path.read_text())
        assert loaded == gpu.races.to_dicts()

    def test_by_array(self):
        gpu = self._run()
        groups = gpu.races.by_array()
        assert "data" in groups
        assert sum(len(v) for v in groups.values()) == gpu.races.unique_count
