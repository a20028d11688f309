"""The ``report`` dashboard: render a run's telemetry as text.

``scord-experiments report --trace trace.json --metrics metrics.prom.json
--manifest manifest.json`` loads the artifacts a traced campaign wrote
and renders the three views people actually reach for first:

* **top counters** — the largest metric values, grouped by layer;
* **phase breakdown** — wall-time per span name, aggregated over the
  trace's wall-clock timeline (without a trace: the manifest's
  ``profile`` phases);
* **timelines** — sparklines of the simulated-cycles counter tracks
  (NoC/DRAM/L2 utilization et al.), the text twin of the Perfetto view.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.telemetry.tracing import SIM_PID, WALL_PID

_SPARKS = "▁▂▃▄▅▆▇█"


def _spark(values: List[float], width: int = 60) -> str:
    if not values:
        return "(empty)"
    if len(values) > width:
        bucket = len(values) / width
        values = [
            sum(values[int(i * bucket):int((i + 1) * bucket) or 1])
            / max(1, len(values[int(i * bucket):int((i + 1) * bucket)]))
            for i in range(width)
        ]
    top = max(values) or 1.0
    return "".join(
        _SPARKS[min(len(_SPARKS) - 1, int(v / top * len(_SPARKS)))]
        for v in values
    )


def _events_of(trace: dict) -> List[dict]:
    if isinstance(trace, dict):
        return trace.get("traceEvents", [])
    return list(trace)


def top_counters(
    metrics: Dict[str, float], top: int = 20
) -> List[str]:
    entries = sorted(
        ((value, name) for name, value in metrics.items()),
        key=lambda item: (-abs(item[0]), item[1]),
    )[:top]
    if not entries:
        return ["  (no metrics)"]
    width = max(len(name) for _value, name in entries)
    lines = []
    for value, name in entries:
        rendered = f"{value:,.0f}" if value == int(value) else f"{value:,.4f}"
        lines.append(f"  {name:<{width}}  {rendered:>16}")
    return lines


#: metric families rendered as their own dashboard blocks (the generic
#: top-counters table buries small-but-important families under engine
#: counters that count in the millions)
_FAMILY_TITLES = {
    "fuzz": "fuzz campaign (fuzz.*):",
    "flight": "flight recorder (flight.*):",
    "forensics": "race forensics (forensics.*):",
    "mc": "model checking (mc.*):",
}


def family_counters(
    metrics: Dict[str, float], family: str
) -> List[str]:
    """All counters of one dotted family, rendered like top_counters."""
    prefix = family + "."
    rows = sorted(
        (name, value) for name, value in metrics.items()
        if name == family or name.startswith(prefix)
    )
    if not rows:
        return []
    width = max(len(name) for name, _value in rows)
    lines = []
    for name, value in rows:
        rendered = f"{value:,.0f}" if value == int(value) else f"{value:,.4f}"
        lines.append(f"  {name:<{width}}  {rendered:>16}")
    return lines


def phase_breakdown(events: List[dict], top: int = 15) -> List[str]:
    totals: Dict[str, dict] = {}
    for event in events:
        if event.get("ph") != "X" or event.get("pid") != WALL_PID:
            continue
        entry = totals.setdefault(
            event["name"], {"us": 0.0, "calls": 0}
        )
        entry["us"] += event.get("dur", 0.0)
        entry["calls"] += 1
    if not totals:
        return ["  (no wall-clock spans in trace)"]
    ranked = sorted(totals.items(), key=lambda kv: -kv[1]["us"])[:top]
    width = max(len(name) for name, _entry in ranked)
    lines = []
    for name, entry in ranked:
        lines.append(
            f"  {name:<{width}}  {entry['us'] / 1e6:>9.3f}s  "
            f"x{entry['calls']}"
        )
    return lines


def manifest_phases(phases: Dict[str, dict]) -> List[str]:
    """The manifest ``profile.phases`` table, in its (costliest-first)
    order."""
    width = max(len(name) for name in phases)
    lines = []
    for name, entry in phases.items():
        rate = (
            f"  {entry['ops_per_sec']:,.0f} ops/s"
            if "ops_per_sec" in entry
            else ""
        )
        lines.append(
            f"  {name:<{width}}  {entry['seconds']:>9.3f}s  "
            f"x{entry['calls']}{rate}"
        )
    return lines


def counter_timelines(events: List[dict], width: int = 60) -> List[str]:
    series: Dict[str, List[tuple]] = {}
    for event in events:
        if event.get("ph") != "C" or event.get("pid") != SIM_PID:
            continue
        for key, value in event.get("args", {}).items():
            name = (
                event["name"]
                if key in ("value",)
                else f"{event['name']}.{key}"
            )
            series.setdefault(name, []).append((event.get("ts", 0), value))
    if not series:
        return ["  (no counter tracks in trace)"]
    lines = []
    name_width = max(len(name) for name in series)
    for name in sorted(series):
        points = sorted(series[name])
        values = [float(v) for _ts, v in points]
        peak = max(values) if values else 0.0
        lines.append(
            f"  {name:<{name_width}} {_spark(values, width)} "
            f"peak {peak:g}"
        )
    return lines


def unit_summary(events: List[dict], slowest: int = 5) -> List[str]:
    units = [
        event
        for event in events
        if event.get("ph") == "X"
        and event.get("pid") == WALL_PID
        and event.get("name", "").startswith("unit:")
    ]
    if not units:
        return ["  (no unit spans in trace)"]
    total_us = sum(event.get("dur", 0.0) for event in units)
    lines = [
        f"  {len(units)} unit(s), {total_us / 1e6:.3f}s total, "
        f"{total_us / len(units) / 1e6:.3f}s mean"
    ]
    ranked = sorted(units, key=lambda e: -e.get("dur", 0.0))[:slowest]
    for event in ranked:
        lines.append(
            f"    {event['name']:<40} {event.get('dur', 0.0) / 1e6:>8.3f}s"
        )
    return lines


def render_dashboard(
    trace: Optional[dict] = None,
    metrics: Optional[dict] = None,
    manifest: Optional[dict] = None,
    top: int = 20,
    width: int = 60,
) -> str:
    """Assemble the text dashboard from whichever artifacts exist."""
    sections: List[str] = ["=== telemetry report ==="]
    if manifest is not None:
        counts = manifest.get("counts", {})
        status = "ok" if manifest.get("ok") else "FAILURES"
        sections.append(
            f"campaign: {status}, "
            f"{counts.get('unique_simulations', '?')} simulation(s) "
            f"({counts.get('fresh_runs', 0)} fresh, "
            f"{counts.get('cached_runs', 0)} cached), "
            f"{manifest.get('elapsed_seconds', '?')}s"
        )
        profile = manifest.get("profile") or {}
        shards = profile.get("shards")
        if shards:
            sections.append("shards:")
            for shard, entry in sorted(shards.items()):
                util = entry.get("utilization")
                util_txt = f" util {util:.0%}" if util is not None else ""
                sections.append(
                    f"  shard {shard}: {entry['units']} unit(s), "
                    f"{entry['busy_seconds']}s busy{util_txt}"
                )
    metric_values = (metrics or {}).get("metrics", metrics) or {}
    if metric_values:
        sections.append("")
        sections.append(f"top {min(top, len(metric_values))} counters:")
        sections.extend(top_counters(metric_values, top=top))
        for family, title in _FAMILY_TITLES.items():
            block = family_counters(metric_values, family)
            if block:
                sections.append("")
                sections.append(title)
                sections.extend(block)
    phases = ((manifest or {}).get("profile") or {}).get("phases")
    if trace is not None:
        events = _events_of(trace)
        sections.append("")
        sections.append("phase breakdown (wall-clock spans):")
        sections.extend(phase_breakdown(events))
        sections.append("")
        sections.append("units:")
        sections.extend(unit_summary(events))
        sections.append("")
        sections.append("simulated-cycles counter timelines:")
        sections.extend(counter_timelines(events, width=width))
    elif phases:
        sections.append("")
        sections.append("phase breakdown (from manifest):")
        sections.extend(manifest_phases(phases))
    if manifest is not None:
        forensics = manifest.get("forensics")
        if forensics:
            sections.append("")
            sections.append("forensics (from manifest):")
            sections.append(
                f"  {forensics.get('units_captured', 0)} unit(s) captured "
                f"({forensics.get('flight_mode', '?')} mode), "
                f"{forensics.get('bundles', 0)} bundle(s), "
                f"{forensics.get('rule_agreement', 0)} agreeing with "
                "the static rule"
            )
            for race_type, count in sorted(
                (forensics.get("units_by_race_type") or {}).items()
            ):
                sections.append(f"    {race_type:<24} {count}")
            if forensics.get("dir"):
                sections.append(f"  bundles under {forensics['dir']}")
        per_worker = (manifest.get("pool") or {}).get("per_worker")
        if per_worker:
            sections.append("")
            sections.append("pool workers:")
            for worker_id, entry in sorted(per_worker.items()):
                state = "alive" if entry.get("alive") else "retired"
                sections.append(
                    f"  worker {worker_id}: {entry.get('units_served', 0)} "
                    f"unit(s), {entry.get('heartbeats_seen', 0)} "
                    f"heartbeat(s), {entry.get('lifetime_seconds', 0)}s "
                    f"({state})"
                )
    return "\n".join(sections)
