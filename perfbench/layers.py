"""Per-layer metrics of a traced run, from the tracer's totals.

Every name below is printed by every workload's traced run (a layer a
workload does not exercise reads 0).  ``_s`` metrics are busy seconds
(the layer's calls, children included) unless the name says ``self_s``;
``ns_per_*`` divide a layer's self time by its exact work count.
"""

from __future__ import annotations

import statistics

from perfbench.harness import metric, ratio

#: (name, unit, the end-to-end metric@workload it should move) of every
#: per-layer metric, in BENCHMARK.json order
PER_LAYER = (
    ("runner.unit_s.none", "s",
     "ops_per_s@apps; the none row is the cost without detection"),
    ("runner.unit_s.base", "s",
     "ops_per_s@apps"),
    ("runner.unit_s.scord", "s",
     "ops_per_s@apps"),
    ("engine.launches", "count",
     "work base for the engine ratios"),
    ("engine.warp_instrs", "count",
     "work base for the engine ratios"),
    ("engine.events", "count",
     "work base for the engine ratios"),
    ("engine.self_s", "s",
     "ops_per_s@apps, ops_per_s@fuzz-mc"),
    ("engine.ns_per_warp_instr", "ns",
     "ops_per_s@apps, ops_per_s@fuzz-mc"),
    ("memops.calls", "count",
     "ops_per_s@apps"),
    ("memops.lanes", "count",
     "ops_per_s@apps"),
    ("memops.self_s", "s",
     "ops_per_s@apps"),
    ("memops.ns_per_lane", "ns",
     "ops_per_s@apps"),
    ("scord.on_access.calls", "count",
     "ops_per_s@apps; small on fuzz-mc, none on serve (pool units)"),
    ("scord.self_s", "s",
     "ops_per_s@apps"),
    ("scord.ns_per_check", "ns",
     "ops_per_s@apps"),
    ("detector.checks", "count",
     "scord_sim_overhead@apps"),
    ("detector.md_accesses", "count",
     "scord_sim_overhead@apps"),
    ("detector.md_skip_ratio", "ratio",
     "scord_sim_overhead@apps"),
    ("detector.lhd_stall_cycles", "cycles",
     "scord_sim_overhead@apps"),
    ("timing.calls", "count",
     "ops_per_s@apps"),
    ("timing.self_s", "s",
     "ops_per_s@apps"),
    ("sim.cycles", "cycles",
     "scord_sim_overhead@apps"),
    ("noc.bytes", "bytes",
     "scord_sim_overhead@apps"),
    ("dram.access.data", "count",
     "scord_sim_overhead@apps"),
    ("dram.access.metadata", "count",
     "scord_sim_overhead@apps"),
    ("l1.hit_ratio", "ratio",
     "scord_sim_overhead@apps"),
    ("l2.hit_ratio", "ratio",
     "scord_sim_overhead@apps"),
    ("scolint.calls", "count",
     "ops_per_s@fuzz-mc, op_s_p50@serve"),
    ("scolint.self_s", "s",
     "ops_per_s@fuzz-mc, op_s_p50@serve"),
    ("fuzz.dynamic_s", "s",
     "ops_per_s@fuzz-mc"),
    ("mc.self_s", "s",
     "ops_per_s@fuzz-mc"),
    ("mc.schedules", "count",
     "ops_per_s@fuzz-mc"),
    ("mc.pruned", "count",
     "ops_per_s@fuzz-mc"),
    ("mc.prune_ratio", "ratio",
     "ops_per_s@fuzz-mc"),
    ("mc.verdict.proven_racy", "count",
     "ops_per_s@fuzz-mc"),
    ("mc.verdict.proven_race_free", "count",
     "ops_per_s@fuzz-mc"),
    ("mc.verdict.budget_exhausted", "count",
     "ops_per_s@fuzz-mc"),
    ("service.post_s", "s",
     "op_s_p50@serve, op_s_tail@serve"),
    ("service.submit_s", "s",
     "op_s_p50@serve, op_s_tail@serve"),
    ("service.queue_wait_s", "s",
     "op_s_p50@serve, op_s_tail@serve"),
    # the pool, ResultCache and RunStore serve only fresh campaign
    # units, which fill the slow end of serve's latencies
    ("pool.execute.calls", "count",
     "ops_per_s@serve, op_s_tail@serve"),
    ("pool.execute_s", "s",
     "ops_per_s@serve, op_s_tail@serve"),
    ("pool.restarts", "count",
     "ops_per_s@serve, op_s_tail@serve"),
    ("pool.retries", "count",
     "ops_per_s@serve, op_s_tail@serve"),
    ("cache.get.calls", "count",
     "ops_per_s@serve, op_s_tail@serve"),
    ("cache.get_s", "s",
     "ops_per_s@serve, op_s_tail@serve"),
    ("cache.put_s", "s",
     "ops_per_s@serve, op_s_tail@serve"),
    ("store.append_s", "s",
     "ops_per_s@serve, op_s_tail@serve"),
    # resubmissions are answered from the daemon's in-memory records
    ("service.hit_ratio", "ratio",
     "op_s_p50@serve, ops_per_s@serve"),
    ("service.coalesced", "count",
     "op_s_p50@serve, ops_per_s@serve"),
    ("tracing_overhead", "x",
     "none: traced ÷ untraced time, the cost of tracing"),
    ("tracing_overhead.iqr", "ratio",
     "none: spread of the per-op tracing overhead"),
)


def _sum_stats(launches):
    totals = {}
    for result in launches:
        for key, value in result.stats.as_dict().items():
            totals[key] = totals.get(key, 0) + value
    return totals


def _prefixed(stats, prefix):
    return sum(v for k, v in stats.items() if k.startswith(prefix))


def per_layer(tracer, extra):
    """Every PER_LAYER metric; *extra* supplies the workload's own."""
    totals = tracer.layer_totals()

    def calls(layer):
        return totals.get(layer, (0, 0.0, 0.0))[0]

    def busy(layer):
        return totals.get(layer, (0, 0.0, 0.0))[1]

    def own(layer):
        return totals.get(layer, (0, 0.0, 0.0))[2]

    by_detector = {}
    for span in tracer.spans:
        if span["name"] == "runner.unit":
            det = span["attrs"].get("detector")
            by_detector[det] = by_detector.get(det, 0.0) + (
                span["end"] - span["start"])

    launches = tracer.launches
    stats = _sum_stats(launches)
    instrs = sum(r.instructions for r in launches)
    lanes = calls("memops.lanes")
    l1_hits = _prefixed(stats, "l1.hit.")
    l2_hits = _prefixed(stats, "l2.hit.")
    reports = tracer.mc_reports
    explored = sum(r["schedules_explored"] for r in reports)
    verdicts = [r["verdict"] for r in reports]

    values = {
        "runner.unit_s.none": by_detector.get("none", 0.0),
        "runner.unit_s.base": by_detector.get("base", 0.0),
        "runner.unit_s.scord": by_detector.get("scord", 0.0),
        "engine.launches": calls("engine"),
        "engine.warp_instrs": instrs,
        "engine.events": sum(r.events for r in launches),
        "engine.self_s": own("engine"),
        "engine.ns_per_warp_instr": 1e9 * ratio(own("engine"), instrs),
        "memops.calls": calls("memops"),
        "memops.lanes": lanes,
        "memops.self_s": own("memops"),
        "memops.ns_per_lane": 1e9 * ratio(own("memops"), lanes),
        "scord.on_access.calls": calls("scord"),
        "scord.self_s": own("scord"),
        "scord.ns_per_check": 1e9 * ratio(own("scord"), calls("scord")),
        "detector.checks": stats.get("detector.checks", 0),
        "detector.md_accesses": stats.get("detector.md_accesses", 0),
        "detector.md_skip_ratio": ratio(
            stats.get("detector.md_cache_skips", 0),
            stats.get("detector.checks", 0)),
        "detector.lhd_stall_cycles": stats.get("detector.lhd_stall_cycles", 0),
        "timing.calls": calls("timing"),
        "timing.self_s": own("timing"),
        "sim.cycles": sum(r.cycles for r in launches),
        "noc.bytes": stats.get("noc.bytes", 0),
        "dram.access.data": stats.get("dram.access.data", 0),
        "dram.access.metadata": stats.get("dram.access.metadata", 0),
        "l1.hit_ratio": ratio(
            l1_hits, l1_hits + _prefixed(stats, "l1.miss.")),
        "l2.hit_ratio": ratio(
            l2_hits, l2_hits + _prefixed(stats, "l2.miss.")),
        "scolint.calls": calls("scolint"),
        "scolint.self_s": own("scolint"),
        "fuzz.dynamic_s": busy("fuzz.dynamic"),
        "mc.self_s": own("mc"),
        "mc.schedules": explored,
        "mc.pruned": sum(r["schedules_pruned"] for r in reports),
        # median: a target's naive schedule count can be astronomically
        # large, so a pooled ratio would be one target's number
        "mc.prune_ratio": statistics.median(
            [r["prune_ratio"] for r in reports] or [0.0]),
        "mc.verdict.proven_racy": verdicts.count("proven_racy"),
        "mc.verdict.proven_race_free": verdicts.count("proven_race_free"),
        "mc.verdict.budget_exhausted": verdicts.count("budget_exhausted"),
        "service.post_s": busy("service.post"),
        "service.submit_s": busy("service.submit"),
        "service.queue_wait_s": tracer.queue_wait_s,
        "pool.execute.calls": calls("pool.execute"),
        "pool.execute_s": busy("pool.execute"),
        "pool.restarts": 0,
        "pool.retries": 0,
        "cache.get.calls": calls("cache.get"),
        "cache.get_s": busy("cache.get"),
        "cache.put_s": busy("cache.put"),
        "store.append_s": busy("store.append"),
        "service.hit_ratio": 0.0,
        "service.coalesced": 0,
        "tracing_overhead": 0.0,
        "tracing_overhead.iqr": 0.0,
    }
    values.update(extra)
    return {name: metric(values[name], unit) for name, unit, _ in PER_LAYER}
