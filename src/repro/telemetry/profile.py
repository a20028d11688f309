"""Per-phase wall-time and throughput accounting.

Where the tracer answers "what happened when", the profiler answers
"where did the time go": every instrumented phase (``engine.launch``,
``exp.simulate``, ``exhibit.table6``, ``campaign.dump`` ...) accumulates
wall seconds, call counts and an optional op count, from which ops/sec
falls out.  The campaign manifest embeds :meth:`PhaseProfiler.as_dict`
so a finished run carries its own phase breakdown.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Optional


class _PhaseStat:
    __slots__ = ("seconds", "calls", "ops")

    def __init__(self):
        self.seconds = 0.0
        self.calls = 0
        self.ops = 0


class _PhaseHandle:
    """Yielded by :meth:`PhaseProfiler.phase`; lets the body report ops."""

    __slots__ = ("ops",)

    def __init__(self):
        self.ops = 0

    def add_ops(self, amount: int) -> None:
        self.ops += amount


class PhaseProfiler:
    """Accumulates wall time per named phase (thread-safe)."""

    def __init__(self):
        self._stats: Dict[str, _PhaseStat] = {}
        self._lock = threading.Lock()

    @contextmanager
    def phase(self, name: str):
        """Time one phase; ``handle.add_ops(n)`` feeds the ops/sec rate."""
        handle = _PhaseHandle()
        started = time.perf_counter()
        try:
            yield handle
        finally:
            self.add(name, time.perf_counter() - started, ops=handle.ops)

    def add(self, name: str, seconds: float, ops: int = 0) -> None:
        with self._lock:
            stat = self._stats.get(name)
            if stat is None:
                stat = self._stats[name] = _PhaseStat()
            stat.seconds += seconds
            stat.calls += 1
            stat.ops += ops

    # ------------------------------------------------------------------
    def seconds(self, name: str) -> float:
        with self._lock:
            stat = self._stats.get(name)
            return stat.seconds if stat else 0.0

    def as_dict(self) -> Dict[str, dict]:
        """``{phase: {seconds, calls, ops, ops_per_sec}}``, sorted by cost."""
        with self._lock:
            items = sorted(
                self._stats.items(), key=lambda kv: -kv[1].seconds
            )
            out = {}
            for name, stat in items:
                entry = {
                    "seconds": round(stat.seconds, 6),
                    "calls": stat.calls,
                }
                if stat.ops:
                    entry["ops"] = stat.ops
                    if stat.seconds > 0:
                        entry["ops_per_sec"] = round(
                            stat.ops / stat.seconds, 1
                        )
                out[name] = entry
            return out

    def collect_metrics(self) -> Dict[str, float]:
        """Registry-collector view: ``profile.<phase>.seconds`` gauges."""
        out: Dict[str, float] = {}
        with self._lock:
            for name, stat in self._stats.items():
                out[f"profile.{name}.seconds"] = round(stat.seconds, 6)
                out[f"profile.{name}.calls"] = float(stat.calls)
        return out

    def render(self, indent: str = "") -> str:
        """Text table of the phase breakdown, costliest first."""
        phases = self.as_dict()
        if not phases:
            return f"{indent}(no phases recorded)"
        width = max(len(name) for name in phases)
        lines = []
        for name, entry in phases.items():
            rate = (
                f"  {entry['ops_per_sec']:>12,.0f} ops/s"
                if "ops_per_sec" in entry
                else ""
            )
            lines.append(
                f"{indent}{name:<{width}}  {entry['seconds']:>9.3f}s  "
                f"x{entry['calls']:<5d}{rate}"
            )
        return "\n".join(lines)


def shard_utilization(
    outcomes, elapsed_seconds: float
) -> Dict[str, dict]:
    """Per-dispatcher busy-time profile of a parallel campaign.

    *outcomes* is an iterable with ``shard`` (the dispatcher index) and
    ``seconds`` attributes (:class:`repro.experiments.parallel.UnitOutcome`);
    units answered at submission (``shard`` None) ran on no dispatcher
    and are skipped.  Utilization is busy seconds over campaign wall
    seconds — a dispatcher at 0.10 spent 90% of the campaign idle (work
    starvation or one long unit elsewhere).
    """
    shards: Dict[int, dict] = {}
    for outcome in outcomes:
        if outcome.shard is None:
            continue
        entry = shards.setdefault(
            outcome.shard, {"units": 0, "busy_seconds": 0.0}
        )
        entry["units"] += 1
        entry["busy_seconds"] += outcome.seconds
    out: Dict[str, dict] = {}
    for shard in sorted(shards):
        entry = shards[shard]
        entry["busy_seconds"] = round(entry["busy_seconds"], 3)
        if elapsed_seconds > 0:
            entry["utilization"] = round(
                entry["busy_seconds"] / elapsed_seconds, 3
            )
        out[str(shard)] = entry
    return out


def source_latencies(outcomes) -> Dict[str, dict]:
    """Mean unit latency by source (``cache`` hit vs executed ``run``)."""
    groups: Dict[str, list] = {}
    for outcome in outcomes:
        source = outcome.source if outcome.failure is None else "failed"
        groups.setdefault(source, []).append(outcome.seconds)
    out = {}
    for source in sorted(groups):
        seconds = groups[source]
        out[source] = {
            "units": len(seconds),
            "total_seconds": round(sum(seconds), 3),
            "mean_seconds": round(sum(seconds) / len(seconds), 4),
        }
    return out
