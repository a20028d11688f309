"""Timed phases and the manifest's ``profile`` block.

``Telemetry.phase`` is the one timer a phase gets: its span and its
``profile.*`` series.  ``Telemetry.profile()`` reads the manifest's
``phases``, ``shards`` and ``unit_sources`` back off the same registry,
so the manifest and the metrics export are one set of numbers.
"""

import pytest

from repro.telemetry import Telemetry, TraceConfig, validate_span_tree


def _telemetry() -> Telemetry:
    return Telemetry(TraceConfig())


class TestPhaseProfiler:
    def test_phases_accumulate_seconds_and_calls(self):
        telemetry = _telemetry()
        for _ in range(3):
            with telemetry.phase("engine.launch"):
                pass
        out = telemetry.profile()["phases"]
        assert out["engine.launch"]["calls"] == 3
        assert out["engine.launch"]["seconds"] >= 0

    def test_ops_per_sec(self):
        telemetry = _telemetry()
        telemetry.metrics.histogram(
            "profile.seconds", phase="engine.launch"
        ).observe(2.0)
        telemetry.metrics.counter(
            "profile.ops", phase="engine.launch"
        ).inc(500)
        out = telemetry.profile()["phases"]["engine.launch"]
        assert out["ops"] == 500
        assert out["ops_per_sec"] == pytest.approx(250.0)

    def test_phase_handle_feeds_ops(self):
        telemetry = _telemetry()
        with telemetry.phase("engine.launch") as handle:
            handle.add_ops(500)
        assert telemetry.profile()["phases"]["engine.launch"]["ops"] == 500

    def test_collect_metrics_names(self):
        """One call opens the span and observes the phase series."""
        telemetry = _telemetry()
        with telemetry.phase("exp.prefetch", "parallel-prefetch"):
            pass
        snap = telemetry.metrics.snapshot()
        assert snap['profile.seconds{phase="exp.prefetch"}.count'] == 1.0
        assert "repro_profile_seconds" in telemetry.metrics.to_prometheus()
        events = telemetry.tracer.events()
        assert validate_span_tree(events) == []
        assert [e["name"] for e in events if e["ph"] == "X"] == [
            "parallel-prefetch"
        ]

    def test_phases_ending_on_many_threads_lose_no_call(self):
        """Service dispatchers end ``service.unit`` phases concurrently."""
        import sys
        import threading

        telemetry = Telemetry.disabled()
        threads, calls = 8, 300

        def work():
            for _ in range(calls):
                with telemetry.phase("service.unit") as handle:
                    handle.add_ops(1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        phase = telemetry.profile()["phases"]["service.unit"]
        assert phase["calls"] == phase["ops"] == threads * calls

    def test_render_sorted_by_cost(self):
        telemetry = _telemetry()
        for name, seconds in (("cheap", 0.5), ("dear", 3.0), ("mid", 1.0)):
            telemetry.metrics.histogram(
                "profile.seconds", phase=name
            ).observe(seconds)
        assert list(telemetry.profile()["phases"]) == ["dear", "mid", "cheap"]


class TestCampaignSummaries:
    def test_shard_utilization(self):
        """Utilization is busy seconds over the ``exp.prefetch`` phase."""
        telemetry = _telemetry()
        metrics = telemetry.metrics
        metrics.histogram("profile.seconds", phase="exp.prefetch").observe(
            4.0
        )
        for shard, seconds in (("0", 2.0), ("0", 1.0), ("1", 3.0)):
            metrics.counter("exp.shard.units", shard=shard).inc()
            metrics.counter("exp.shard.busy_seconds", shard=shard).inc(
                seconds
            )
        out = telemetry.profile()["shards"]
        assert out["0"]["units"] == 2
        assert out["0"]["busy_seconds"] == pytest.approx(3.0)
        assert out["0"]["utilization"] == pytest.approx(0.75)
        assert out["1"]["utilization"] == pytest.approx(0.75)

    def test_source_latencies(self):
        telemetry = _telemetry()
        for source, seconds in (("run", 2.0), ("run", 4.0), ("cache", 0.1)):
            telemetry.metrics.histogram(
                "exp.unit.seconds", source=source
            ).observe(seconds)
        out = telemetry.profile()["unit_sources"]
        assert out["run"]["units"] == 2
        assert out["run"]["mean_seconds"] == pytest.approx(3.0)
        assert out["cache"]["units"] == 1
        assert "shards" not in telemetry.profile()

    def test_source_latencies_failed_bucket(self):
        """A failed pool unit lands in the ``failed`` source."""
        from repro.experiments.campaign import CampaignRunner, RunFailure
        from repro.experiments.campaign import RunSpec

        class _Executor:
            def execute(self, spec):  # never called
                raise AssertionError(spec)

        telemetry = _telemetry()
        runner = CampaignRunner(
            _Executor(), verbose=False, telemetry=telemetry
        )
        try:
            spec = RunSpec("RED")
            runner._fail(RunFailure(spec, "run-timeout", "slow", 2), 1.0)
        finally:
            runner.scheduler.close()
        out = telemetry.profile()["unit_sources"]
        assert out["failed"]["units"] == 1
        assert [f.spec for f in runner.failures] == [spec]
