"""``scord-experiments fuzz``: the differential fuzz campaign CLI.

Examples::

    scord-experiments fuzz --count 200 --seed 0
    scord-experiments fuzz --count 100 --mc        # three-way differential
    scord-experiments fuzz --count 60 --time-budget 120 \
        --corpus tests/corpus/fuzz --json-out fuzz_report.json \
        --metrics-out fuzz_metrics.prom

Exit code 0 when the campaign ran to completion (disagreements are the
*product*, not a failure: each one is shrunk and persisted as a corpus
regression).  Non-zero only for harness errors.
"""

from __future__ import annotations

import argparse
import json
import sys


def fuzz_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="scord-experiments fuzz",
        description="Differentially fuzz scolint and dynamic ScoRD with "
        "synthesized programs of known ground truth "
        "(see docs/fuzzing.md).",
    )
    parser.add_argument(
        "--count", type=int, default=200, metavar="N",
        help="unique programs to evaluate (default 200)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="campaign seed: fixes program generation (default 0)",
    )
    parser.add_argument(
        "--corpus", metavar="DIR", default=None,
        help="corpus directory: existing entries mask known "
        "disagreements, new shrunk disagreements are persisted here",
    )
    parser.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget; the campaign stops finding new work "
        "once exceeded (default: none)",
    )
    parser.add_argument(
        "--detector", default="scord", metavar="LABEL",
        help="dynamic detector configuration label (default scord)",
    )
    parser.add_argument(
        "--mc", action="store_true",
        help="also run the model-checking oracle (bounded DPOR schedule "
        "enumeration) on every program — three-way differential",
    )
    parser.add_argument(
        "--mc-budget", type=int, default=None, metavar="N",
        help="schedules per program for the mc oracle "
        "(default: oracles.DEFAULT_MC_BUDGET; implies --mc)",
    )
    parser.add_argument(
        "--json-out", metavar="PATH", default=None,
        help="write the JSON campaign report to PATH "
        "(atomic: temp file + rename)",
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write fuzz.* counters as Prometheus text to PATH "
        "(and JSON to PATH.json)",
    )
    parser.add_argument(
        "--forensics-out", metavar="DIR", default=None,
        help="write a forensic bundle (both oracle verdicts + candidate "
        "happens-before edges) per disagreement under DIR",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the human-readable summary on stdout",
    )
    args = parser.parse_args(argv)
    if args.count < 0:
        parser.error("--count must be >= 0")

    from repro.experiments.runner import DETECTORS
    from repro.fuzz.differential import fuzz_campaign
    from repro.fuzz.oracles import DEFAULT_MC_BUDGET

    if args.detector not in DETECTORS:
        parser.error(
            f"unknown detector {args.detector!r}: "
            f"use one of {', '.join(sorted(DETECTORS))}"
        )
    mc = args.mc or args.mc_budget is not None
    mc_budget = (
        args.mc_budget if args.mc_budget is not None else DEFAULT_MC_BUDGET
    )
    if mc_budget < 1:
        parser.error("--mc-budget must be >= 1")

    telemetry = None
    if args.metrics_out:
        from repro.telemetry import Telemetry

        telemetry = Telemetry.disabled()

    report = fuzz_campaign(
        count=args.count,
        seed=args.seed,
        corpus_dir=args.corpus,
        time_budget=args.time_budget,
        detector=args.detector,
        mc=mc,
        mc_budget=mc_budget,
        telemetry=telemetry,
    )

    if not args.quiet:
        print(_render(report))
    if args.json_out:
        from repro.experiments.store import atomic_write_text

        atomic_write_text(
            args.json_out,
            json.dumps(report, indent=2, sort_keys=True) + "\n",
        )
        print(f"[fuzz report written to {args.json_out}]", file=sys.stderr)
    if args.forensics_out:
        from repro.forensics import bundle_from_disagreement, write_bundles

        bundles = [
            bundle_from_disagreement(item)
            for item in report["disagreements"]
        ]
        written = write_bundles(bundles, args.forensics_out, prefix="fuzz")
        if telemetry is not None:
            telemetry.metrics.counter("forensics.bundles").inc(len(bundles))
        print(
            f"[{len(bundles)} forensic bundle(s) written under "
            f"{args.forensics_out}]",
            file=sys.stderr,
        )
    if telemetry is not None:
        for written in telemetry.export(None, args.metrics_out):
            print(f"[telemetry written to {written}]", file=sys.stderr)
    return 0


def _render(report: dict) -> str:
    lines = [
        "=== Differential fuzz campaign ===",
        f"programs evaluated: {report['examples']} "
        f"({report['racy']} racy, {report['race_free']} race-free; "
        f"budget {report['count']}, seed {report['seed']})",
        f"dynamic oracle: detector={report['detector']}"
        + (f"; mc oracle on (budget {report['mc_budget']})"
           if report.get("mc") else ""),
        f"rounds: {report['rounds']}"
        + (", time budget exhausted" if report["budget_exhausted"] else ""),
        f"oracle crashes: {report['crashes']}",
        f"disagreements: {len(report['disagreements'])}",
    ]
    for item in report["disagreements"]:
        lines.append(
            f"  [{item['kind']}] {item['shrunk_describe']} — {item['detail']}"
        )
        if "corpus_path" in item:
            lines.append(f"    persisted: {item['corpus_path']}")
    if report["corpus_dir"] and not report["disagreements"]:
        lines.append(f"corpus: no new entries under {report['corpus_dir']}")
    lines.append(f"elapsed: {report['elapsed_seconds']}s")
    return "\n".join(lines)
