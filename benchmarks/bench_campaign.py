#!/usr/bin/env python
"""Benchmark the parallel campaign executor: serial vs ``--jobs``, cold
vs content-addressed cache, on the Table VI detection campaign.

Emits ``BENCH_campaign.json`` — the start of the campaign-throughput
perf trajectory.  Three phases over the same unit list:

1. ``serial_cold``   — jobs=1, empty cache, on a 1-worker pool (the
   same path as ``scord-experiments --jobs 1``);
2. ``parallel_cold`` — jobs=N, empty cache, on an N-worker pool;
3. ``parallel_warm`` — jobs=N, re-run against phase 2's cache (every
   unit is a content-addressed hit; no simulation at all).

Every phase runs on the supervised warm worker pool, so the speedup is
parallelism alone, not a cheaper per-unit spawn.

The serial and parallel phases are also checked record-for-record
identical, so the speedup is never bought with nondeterminism.

Usage::

    PYTHONPATH=src python benchmarks/bench_campaign.py            # full Table VI
    PYTHONPATH=src python benchmarks/bench_campaign.py --campaign ci --jobs 2
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

from repro.experiments.campaign import RunSpec
from repro.experiments.parallel import (
    ParallelCampaignExecutor,
    ResultCache,
)
from repro.experiments.store import atomic_write_json, semantic_record_dict
from repro.experiments.supervisor import PoolConfig, PoolSupervisor
from repro.scor.apps.registry import ALL_APPS

BENCH_SCHEMA = 1


def table6_units(flags_per_app: int = 0) -> list:
    """The Table VI app campaign: every race flag under base and ScoRD.

    *flags_per_app* > 0 limits each app to its first N flags (the CI
    smoke subset); 0 means the full campaign.
    """
    units = []
    for app_cls in ALL_APPS:
        flags = app_cls.RACE_FLAGS
        if flags_per_app:
            flags = flags[:flags_per_app]
        for flag in flags:
            for detector in ("base", "scord"):
                units.append(
                    RunSpec(app_cls.name, detector, races=(flag.name,))
                )
    return units


def bench_telemetry(repeats: int = 3) -> dict:
    """Telemetry-on vs -off overhead on one in-process app simulation.

    Three variants of the same workload, min-of-*repeats* each:
    ``off`` (no telemetry object at all), ``disabled`` (a Telemetry
    bundle with tracing off — what tier-1 tests pay), and ``tracing``
    (full spans, warp-step sampling, and fabric counter tracks).
    """
    from repro.scor.apps.registry import app_by_name
    from repro.scor.apps.base import run_app
    from repro.experiments.runner import DETECTORS
    from repro.telemetry import Telemetry, TraceConfig

    app_cls = app_by_name("1DC")

    def once(make_telemetry, sample_interval):
        telemetry = make_telemetry()
        started = time.perf_counter()
        run_app(
            app_cls(),
            detector_config=DETECTORS["scord"],
            telemetry=telemetry,
            sample_interval=sample_interval,
        )
        return time.perf_counter() - started

    def best(make_telemetry, sample_interval=0):
        return min(
            once(make_telemetry, sample_interval) for _ in range(repeats)
        )

    once(lambda: None, 0)  # warm imports/allocators out of the timings
    off = best(lambda: None)
    disabled = best(Telemetry.disabled)
    tracing = best(
        lambda: Telemetry(TraceConfig(warp_step_interval=64)),
        sample_interval=2000,
    )

    def ratio(a, b):
        return round(a / b, 3) if b > 0 else None

    return {
        "workload": "1DC/scord/default",
        "repeats": repeats,
        "off_seconds": round(off, 4),
        "disabled_seconds": round(disabled, 4),
        "tracing_seconds": round(tracing, 4),
        "disabled_overhead": ratio(disabled, off),
        "tracing_overhead": ratio(tracing, off),
    }


def run_phase(units, jobs, cache, timeout, verbose) -> dict:
    supervisor = PoolSupervisor(
        PoolConfig(workers=jobs, unit_timeout=timeout, max_retries=1)
    )
    parallel = ParallelCampaignExecutor(
        supervisor, jobs=jobs, cache=cache, verbose=verbose
    )
    started = time.time()
    try:
        outcome = parallel.run_units(units)
    finally:
        supervisor.close()
    seconds = time.time() - started
    return {
        "seconds": round(seconds, 3),
        "jobs": outcome.jobs,
        "executed": outcome.executed,
        "cache_hits": outcome.cache_hits,
        "failed": len(outcome.failures),
        "mode": "pool",
        "outcome": outcome,
        "pool": supervisor.stats(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=4,
                        help="shard count for the parallel phases")
    parser.add_argument("--campaign", choices=("table6", "ci"),
                        default="table6",
                        help="'table6' = all 26 flags x {base, scord}; "
                        "'ci' = first flag per app (fast smoke)")
    parser.add_argument("--out", default="BENCH_campaign.json",
                        help="output JSON path")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="per-unit wall-clock timeout (seconds)")
    parser.add_argument("--work-dir", default=None,
                        help="directory for the phase caches "
                        "(default: a fresh temp dir)")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    units = table6_units(flags_per_app=1 if args.campaign == "ci" else 0)
    verbose = not args.quiet
    work_dir = args.work_dir or tempfile.mkdtemp(prefix="bench_campaign.")
    log = lambda msg: print(msg, file=sys.stderr, flush=True)

    # More shards than CPUs cannot speed up CPU-bound simulation — the
    # dispatcher threads just time-slice one core and the "speedup"
    # reads as a misleading <1x.  Clamp and say so instead.
    cpus = os.cpu_count() or 1
    jobs = min(args.jobs, cpus)
    cpu_bound = jobs < args.jobs
    if cpu_bound:
        log(f"[bench] clamping --jobs {args.jobs} to {jobs} "
            f"(host has {cpus} CPU(s); campaign is CPU-bound)")

    log(f"[bench] campaign={args.campaign} units={len(units)} "
        f"jobs={jobs} cpus={cpus}")

    log("[bench] phase 1/3: serial cold (jobs=1, 1-worker pool)")
    serial = run_phase(
        units, jobs=1, cache=ResultCache(os.path.join(work_dir, "serial")),
        timeout=args.timeout, verbose=verbose,
    )
    log(f"[bench]   {serial['seconds']}s, {serial['failed']} failed")

    log(f"[bench] phase 2/3: parallel cold (jobs={jobs}, {jobs}-worker pool)")
    warm_cache = ResultCache(os.path.join(work_dir, "parallel"))
    cold = run_phase(
        units, jobs=jobs, cache=warm_cache,
        timeout=args.timeout, verbose=verbose,
    )
    log(f"[bench]   {cold['seconds']}s, {cold['failed']} failed")

    log(f"[bench] phase 3/3: parallel warm (jobs={jobs}, cache hits)")
    warm = run_phase(
        units, jobs=jobs, cache=warm_cache,
        timeout=args.timeout, verbose=verbose,
    )
    log(f"[bench]   {warm['seconds']}s, "
        f"{warm['cache_hits']}/{len(units)} cache hits")

    log("[bench] telemetry overhead (in-process, telemetry on vs off)")
    telemetry = bench_telemetry()
    log(f"[bench]   off {telemetry['off_seconds']}s, disabled "
        f"x{telemetry['disabled_overhead']}, tracing "
        f"x{telemetry['tracing_overhead']}")

    def merged(phase):
        return [
            (u.spec.key(), semantic_record_dict(u.record))
            for u in phase["outcome"].outcomes if u.record is not None
        ]

    deterministic = (
        merged(serial) == merged(cold) == merged(warm)
    )

    def ratio(a, b):
        return round(a / b, 2) if b > 0 else None

    payload = {
        "schema": BENCH_SCHEMA,
        "campaign": args.campaign,
        "units": len(units),
        "jobs": jobs,
        "jobs_requested": args.jobs,
        "cpus": cpus,
        "cpu_bound": cpu_bound,
        "deterministic": deterministic,
        "phases": {
            name: {k: v for k, v in phase.items() if k != "outcome"}
            for name, phase in (
                ("serial_cold", serial),
                ("parallel_cold", cold),
                ("parallel_warm", warm),
            )
        },
        "parallel_speedup": ratio(serial["seconds"], cold["seconds"]),
        "warm_speedup": ratio(cold["seconds"], warm["seconds"]),
        "cache_hit_rate": ratio(warm["cache_hits"], len(units)),
        # A separate top-level key: the phases dict is shape-checked by
        # CI (every entry has "failed"), telemetry timings are not phases.
        "telemetry": telemetry,
    }
    atomic_write_json(args.out, payload)
    bound = " (CPU-bound: jobs clamped to CPU count)" if cpu_bound else ""
    log(f"[bench] wrote {args.out}: parallel x{payload['parallel_speedup']}"
        f"{bound}, warm x{payload['warm_speedup']}")
    if not deterministic:
        log("[bench] ERROR: phases disagreed record-for-record")
        return 1
    if serial["failed"] or cold["failed"] or warm["failed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
