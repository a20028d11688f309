"""Unified telemetry: tracing, metrics, and profiling for the whole stack.

One :class:`Telemetry` object bundles the observability surfaces and is
threaded (optionally — everything accepts ``telemetry=None``) through
the simulator, the detector, and the experiment harness:

* :class:`~repro.telemetry.tracing.Tracer` — hierarchical spans
  (``campaign → exhibit → unit → kernel → warp-step``) exported as
  Chrome ``trace_event`` JSON (Perfetto-loadable) and compact JSONL;
* :class:`~repro.telemetry.metrics.MetricsRegistry` — named
  Counter/Gauge/Histogram instruments plus pull-collectors over the
  legacy :class:`~repro.common.stats.CounterBag`\\ s, exported as JSON
  and Prometheus text format;
* :meth:`Telemetry.phase` — one call per timed phase (``engine.launch``,
  ``exp.prefetch``, ``exp.render.fig8`` ...): it opens the tracer span
  and observes the ``profile.seconds{phase=...}`` histogram (plus the
  ``profile.ops`` counter that feeds ops/sec), so a phase's wall time is
  one number, exported with the rest of the registry and read back by
  the campaign manifest's ``profile`` block.

Quick start::

    from repro import GPU
    from repro.telemetry import Telemetry, TraceConfig

    telemetry = Telemetry(TraceConfig(warp_step_interval=64))
    gpu = GPU(telemetry=telemetry, sample_interval=200)
    gpu.launch(kernel, grid=8, block_dim=32, args=(data,))
    telemetry.export(trace_path="trace.json", metrics_path="metrics.prom")

On the command line, ``scord-experiments table6 --trace trace.json
--metrics-out metrics.prom`` instruments a whole campaign, and
``scord-experiments report --trace trace.json --metrics
metrics.prom.json`` renders the text dashboard.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from typing import Optional

from repro.telemetry.flight import (
    NULL_FLIGHT,
    FlightConfig,
    FlightRecorder,
    NullFlightRecorder,
)
from repro.telemetry.metrics import (
    MetricsRegistry,
    canonical_counter_name,
    validate_prometheus,
)
from repro.telemetry.report import render_dashboard
from repro.telemetry.tracing import (
    NULL_TRACER,
    SIM_PID,
    WALL_PID,
    TraceConfig,
    Tracer,
    validate_span_tree,
)

__all__ = [
    "Telemetry",
    "Tracer",
    "TraceConfig",
    "MetricsRegistry",
    "FlightConfig",
    "FlightRecorder",
    "NullFlightRecorder",
    "NULL_FLIGHT",
    "NULL_TRACER",
    "WALL_PID",
    "SIM_PID",
    "canonical_counter_name",
    "validate_prometheus",
    "validate_span_tree",
    "render_dashboard",
]


class PhaseOps:
    """Yielded by :meth:`Telemetry.phase`; lets the body report ops."""

    __slots__ = ("ops",)

    def __init__(self):
        self.ops = 0

    def add_ops(self, amount: int) -> None:
        self.ops += amount


class Telemetry:
    """The bundle every layer receives: tracer + metrics (+ flight)."""

    def __init__(
        self,
        trace: Optional[TraceConfig] = None,
        flight: Optional[FlightConfig] = None,
    ):
        config = trace if trace is not None else TraceConfig()
        self.tracer: Tracer = Tracer(config) if config.enabled else NULL_TRACER
        self.metrics = MetricsRegistry()
        # phases end on several threads at once (service dispatchers)
        self._phase_lock = threading.Lock()
        # Optional flight recorder (see repro.telemetry.flight).  When
        # absent this is the shared NULL recorder, and the engine installs
        # no capture wrapper — the hot path stays the uninstrumented fast
        # path.
        self.flight: FlightRecorder = (
            FlightRecorder(flight) if flight is not None else NULL_FLIGHT
        )
        if self.flight.enabled:
            # The collector reads through self.flight so callers that
            # swap in a fresh per-unit recorder (the Runner does) keep
            # the export pointed at the live one.
            self.metrics.register_collector(
                lambda: self.flight.collect_metrics(),
                key="telemetry.flight",
            )

    @property
    def enabled(self) -> bool:
        """True when the tracer records (metrics always accumulate)."""
        return self.tracer.enabled

    @contextlib.contextmanager
    def phase(self, name: str, span: Optional[str] = None,
              cat: str = "exp", **args):
        """Time one phase: the tracer span *span* (default *name*) and
        one ``profile.seconds{phase=name}`` observation.

        Yields a :class:`PhaseOps` handle; ``handle.add_ops(n)`` feeds
        the phase's ``profile.ops`` counter, from which ops/sec falls
        out.
        """
        handle = PhaseOps()
        with self.tracer.span(span or name, cat=cat, **args):
            started = time.perf_counter()
            try:
                yield handle
            finally:
                seconds = time.perf_counter() - started
                metrics = self.metrics
                with self._phase_lock:
                    metrics.histogram(
                        "profile.seconds", phase=name
                    ).observe(seconds)
                    if handle.ops:
                        metrics.counter(
                            "profile.ops", phase=name
                        ).inc(handle.ops)

    def profile(self) -> dict:
        """The campaign manifest's ``profile`` block, read off the registry.

        ``phases`` is ``{phase: {seconds, calls[, ops, ops_per_sec]}}``
        from the ``profile.*`` series, costliest first.  ``shards``
        (per-dispatcher units, busy seconds, and utilization over the
        ``exp.prefetch`` phase) and ``unit_sources`` (unit count, total
        and mean latency per ``exp.unit.seconds`` source) appear once
        their series exist.
        """
        metrics = self.metrics
        ops = metrics.family("profile.ops", "phase")
        timed = metrics.family("profile.seconds", "phase")
        phases = {}
        for name, hist in sorted(timed.items(), key=lambda kv: -kv[1].total):
            entry = {"seconds": round(hist.total, 6), "calls": hist.count}
            if name in ops:
                entry["ops"] = int(ops[name].value)
                if hist.total > 0:
                    entry["ops_per_sec"] = round(
                        ops[name].value / hist.total, 1
                    )
            phases[name] = entry
        section = {"phases": phases}
        units = metrics.family("exp.shard.units", "shard")
        busy = metrics.family("exp.shard.busy_seconds", "shard")
        wall = phases.get("exp.prefetch", {}).get("seconds", 0.0)
        shards = {}
        for shard in sorted(units, key=int):
            seconds = busy[shard].value
            shards[shard] = {
                "units": int(units[shard].value),
                "busy_seconds": round(seconds, 3),
            }
            if wall > 0:
                shards[shard]["utilization"] = round(seconds / wall, 3)
        if shards:
            section["shards"] = shards
        sources = metrics.family("exp.unit.seconds", "source")
        if sources:
            section["unit_sources"] = {
                source: {
                    "units": hist.count,
                    "total_seconds": round(hist.total, 3),
                    "mean_seconds": round(hist.mean, 4),
                }
                for source, hist in sorted(sources.items())
            }
        return section

    @staticmethod
    def disabled() -> "Telemetry":
        """A telemetry bundle with tracing off — near-zero overhead.

        Metrics instruments and collectors still work (they are pull
        based and cost nothing until exported); only event recording is
        disabled.
        """
        return Telemetry(TraceConfig(enabled=False))

    # ------------------------------------------------------------------
    def export(
        self,
        trace_path: Optional[str] = None,
        metrics_path: Optional[str] = None,
    ) -> list:
        """Write the run's artifacts; returns the paths written.

        *trace_path* receives the Chrome trace JSON plus a sibling
        ``.jsonl`` stream; *metrics_path* receives the Prometheus text
        exposition plus a sibling ``.json`` document.
        """
        written = []
        if trace_path:
            self.tracer.write_chrome(trace_path)
            written.append(os.fspath(trace_path))
            jsonl = os.path.splitext(os.fspath(trace_path))[0] + ".jsonl"
            self.tracer.write_jsonl(jsonl)
            written.append(jsonl)
        if metrics_path:
            self.metrics.write_prometheus(metrics_path)
            written.append(os.fspath(metrics_path))
            as_json = os.fspath(metrics_path) + ".json"
            self.metrics.write_json(as_json)
            written.append(as_json)
        return written
