#!/usr/bin/env python
"""Benchmark the single-process engine hot path (serial-cold Table VI).

``BENCH_campaign.json`` measures campaign *orchestration* (dispatch,
subprocess isolation, the result cache); this benchmark measures the
**engine core itself**: every Table VI unit simulated in-process,
serially, with nothing cached — the per-unit cost that dominates
wall-clock on hosts where ``cpus < jobs``.

Emits ``BENCH_engine.json``:

* ``pre_pr_baseline`` — the pre-optimization engine's seconds on the
  same campaign (measured once with the reference engine and carried
  forward verbatim on regeneration);
* ``current`` — this run;
* ``speedup_vs_pre_pr`` — the engine-core speedup the fast path buys;
* ``calibration_seconds`` — a fixed pure-Python workload timed on the
  same host, so CI can compare *normalized* engine time across machines
  (``--check`` mode) instead of raw wall-clock.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py                  # full Table VI
    PYTHONPATH=src python benchmarks/bench_engine.py --campaign ci
    PYTHONPATH=src python benchmarks/bench_engine.py --campaign ci \
        --check BENCH_engine.json --budget 1.5                        # CI regression gate
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.experiments.runner import Runner
from repro.experiments.store import atomic_write_json
from repro.scor.apps.registry import ALL_APPS, app_by_name

BENCH_SCHEMA = 1

#: engine-core speedup the fast path must deliver vs. the pre-PR engine
REQUIRED_SPEEDUP = 2.0


def table6_units(flags_per_app: int = 0) -> list:
    """(app, detector, races) for the Table VI detection campaign."""
    units = []
    for app_cls in ALL_APPS:
        flags = app_cls.RACE_FLAGS
        if flags_per_app:
            flags = flags[:flags_per_app]
        for flag in flags:
            for detector in ("base", "scord"):
                units.append((app_cls.name, detector, (flag.name,)))
    return units


def calibrate(target_iterations: int = 2_000_000) -> float:
    """Seconds for a fixed pure-Python workload (host speed yardstick).

    Deliberately interpreter-bound (dict churn + integer arithmetic,
    like the simulator's hot path) and independent of the engine, so a
    host running the calibration 2x slower is expected to run the
    engine ~2x slower too.
    """
    started = time.perf_counter()
    acc = 0
    table = {}
    for i in range(target_iterations):
        acc += i & 0xFFFF
        if i & 1023 == 0:
            table[i & 8191] = acc
    if acc < 0:  # keep the loop un-eliminable
        print(acc)
    return time.perf_counter() - started


def run_campaign(units, repeat: int = 1, flight=None) -> dict:
    """Serial-cold in-process execution; min-of-*repeat* total seconds.

    *flight* is an optional FlightConfig: the same campaign with the
    flight recorder capturing, for the capture-overhead comparison.
    """
    best = None
    cycles = 0
    per_detector: dict = {}
    for _ in range(repeat):
        runner = Runner(verbose=False, flight=flight)
        cycles = 0
        per_detector = {}
        started = time.perf_counter()
        for app_name, detector, races in units:
            unit_started = time.perf_counter()
            record = runner.run(
                app_by_name(app_name), detector=detector, races=races
            )
            per_detector[detector] = per_detector.get(detector, 0.0) + (
                time.perf_counter() - unit_started
            )
            cycles += record.cycles
        seconds = time.perf_counter() - started
        if best is None or seconds < best:
            best = seconds
    return {
        "seconds": round(best, 3),
        "units": len(units),
        "units_per_second": round(len(units) / best, 3) if best else None,
        "simulated_cycles": cycles,
        "per_detector_seconds": {
            k: round(v, 3) for k, v in sorted(per_detector.items())
        },
    }


def measure_capture_overhead(log) -> dict:
    """Capture-off vs ring vs full flight capture on the ci subset.

    Always measured on the small subset (first flag per app) so the
    comparison stays cheap even when the main campaign is full Table VI.
    The capture-off number the CI gate protects is ``current`` above —
    this block documents what turning capture *on* costs.
    """
    from repro.telemetry import FlightConfig

    units = table6_units(flags_per_app=1)
    block = {"units": len(units)}
    off = run_campaign(units)
    block["off_seconds"] = off["seconds"]
    log(f"[bench-engine]   capture off: {off['seconds']}s")
    for mode in ("ring", "full"):
        result = run_campaign(units, flight=FlightConfig(mode=mode))
        block[f"{mode}_seconds"] = result["seconds"]
        block[f"{mode}_overhead"] = (
            round(result["seconds"] / off["seconds"], 3)
            if off["seconds"] else None
        )
        log(f"[bench-engine]   capture {mode}: {result['seconds']}s "
            f"(x{block[f'{mode}_overhead']})")
    return block


def check_regression(payload: dict, committed_path: str, budget: float) -> int:
    """CI gate: normalized engine time must stay within *budget*x."""
    with open(committed_path, "r") as handle:
        committed = json.load(handle)
    problems = []
    # Prefer the calibration-normalized ratio (meaningful across host-speed
    # drift); fall back to the raw one for files that predate it.
    speedup = committed.get("speedup_vs_pre_pr_normalized")
    if speedup is None:
        speedup = committed.get("speedup_vs_pre_pr")
    if speedup is None or speedup < REQUIRED_SPEEDUP:
        problems.append(
            f"committed {committed_path} claims a pre-PR speedup of "
            f"{speedup!r}, below the required {REQUIRED_SPEEDUP}x"
        )
    committed_norm = None
    committed_current = committed.get("current") or {}
    if committed.get("calibration_seconds") and committed_current.get("seconds"):
        committed_norm = (
            committed_current["seconds"] / committed["calibration_seconds"]
        )
    current_norm = None
    if payload.get("calibration_seconds") and payload["current"]["seconds"]:
        current_norm = (
            payload["current"]["seconds"] / payload["calibration_seconds"]
        )
    if committed_norm and current_norm:
        ratio = current_norm / committed_norm
        # The committed file records the full campaign; --check may run
        # the ci subset, so compare per-unit normalized cost.
        committed_per_unit = committed_norm / max(
            1, committed.get("units", committed_current.get("units", 1))
        )
        current_per_unit = current_norm / max(1, payload["units"])
        ratio = current_per_unit / committed_per_unit
        payload["regression_ratio"] = round(ratio, 3)
        if ratio > budget:
            problems.append(
                f"normalized per-unit engine time regressed {ratio:.2f}x "
                f"vs the committed baseline (budget {budget}x)"
            )
    else:
        problems.append("missing calibration/seconds for normalization")
    for problem in problems:
        print(f"[bench-engine] REGRESSION: {problem}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--campaign", choices=("table6", "ci"),
                        default="table6",
                        help="'table6' = all 26 flags x {base, scord}; "
                        "'ci' = first flag per app")
    parser.add_argument("--out", default="BENCH_engine.json")
    parser.add_argument("--repeat", type=int, default=1,
                        help="repetitions (min total is reported)")
    parser.add_argument("--baseline", default=None,
                        help="committed BENCH_engine.json whose "
                        "pre_pr_baseline block is carried forward "
                        "(default: --out if it exists)")
    parser.add_argument("--record-pre-pr-baseline", action="store_true",
                        help="record THIS run as the pre-PR reference "
                        "engine measurement (only meaningful on the "
                        "unoptimized engine)")
    parser.add_argument("--check", default=None, metavar="COMMITTED",
                        help="CI gate: fail if normalized per-unit time "
                        "exceeds --budget x the committed file's")
    parser.add_argument("--budget", type=float, default=1.5)
    parser.add_argument("--no-capture-overhead", action="store_true",
                        help="skip the capture-off/ring/full flight "
                        "recorder overhead comparison")
    args = parser.parse_args(argv)

    units = table6_units(flags_per_app=1 if args.campaign == "ci" else 0)
    log = lambda msg: print(msg, file=sys.stderr, flush=True)
    log(f"[bench-engine] campaign={args.campaign} units={len(units)} "
        f"cpus={os.cpu_count()}")

    log("[bench-engine] calibrating host speed")
    calibration = min(calibrate() for _ in range(3))
    log(f"[bench-engine]   {calibration:.3f}s")

    log(f"[bench-engine] serial-cold campaign ({len(units)} units, "
        f"in-process)")
    current = run_campaign(units, repeat=args.repeat)
    log(f"[bench-engine]   {current['seconds']}s "
        f"({current['units_per_second']} units/s)")

    payload = {
        "schema": BENCH_SCHEMA,
        "campaign": args.campaign,
        "units": len(units),
        "cpus": os.cpu_count(),
        "calibration_seconds": round(calibration, 4),
        "current": current,
        "regression_budget": args.budget,
    }

    if not args.no_capture_overhead:
        log("[bench-engine] flight-capture overhead (ci subset)")
        payload["capture_overhead"] = measure_capture_overhead(log)

    if args.record_pre_pr_baseline:
        payload["pre_pr_baseline"] = {
            "seconds": current["seconds"],
            "campaign": args.campaign,
            "calibration_seconds": round(calibration, 4),
            "note": "reference (pre-fast-path) engine, same host",
        }
    else:
        baseline_path = args.baseline or (
            args.out if os.path.exists(args.out) else None
        )
        if baseline_path and os.path.exists(baseline_path):
            with open(baseline_path, "r") as handle:
                previous = json.load(handle)
            if "pre_pr_baseline" in previous:
                payload["pre_pr_baseline"] = previous["pre_pr_baseline"]

    baseline = payload.get("pre_pr_baseline")
    if baseline and baseline.get("campaign") == args.campaign:
        payload["speedup_vs_pre_pr"] = round(
            baseline["seconds"] / current["seconds"], 2
        )
        log(f"[bench-engine] speedup vs pre-PR engine: "
            f"x{payload['speedup_vs_pre_pr']} "
            f"(baseline {baseline['seconds']}s)")
        # The raw ratio is only meaningful if the host ran at the same
        # speed for both measurements; the calibration-normalized ratio
        # divides each run by its own host yardstick and is the honest
        # number on drifting or different hardware.
        if baseline.get("calibration_seconds") and calibration:
            payload["speedup_vs_pre_pr_normalized"] = round(
                (baseline["seconds"] / baseline["calibration_seconds"])
                / (current["seconds"] / calibration),
                2,
            )
            log(f"[bench-engine] calibration-normalized speedup: "
                f"x{payload['speedup_vs_pre_pr_normalized']}")

    status = 0
    if args.check:
        status = check_regression(payload, args.check, args.budget)

    atomic_write_json(args.out, payload)
    log(f"[bench-engine] wrote {args.out}")
    return status


if __name__ == "__main__":
    sys.exit(main())
