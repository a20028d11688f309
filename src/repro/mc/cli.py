"""``scord-experiments mc``: explore schedules, prove race verdicts.

Examples::

    scord-experiments mc micro:fence_missing_cross_block
    scord-experiments mc micros --budget 64 --json-out mc.json
    scord-experiments mc app:UTS+block_exch_global --detector base --check
    scord-experiments mc suite --store runs/mc --resume

Targets and groups follow the suite catalog (:mod:`repro.targets`,
docs/scor_suite.md); ``apps`` is every application flagless and once per
race flag, and ``all`` adds the litmus tests to ``suite``.

Exit code 0 when every exploration completed; with ``--check``, 1 when
any verdict contradicts the target's ground truth (a racy config not
proven racy, a race-free config not proven race-free).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.mc.explorer import DEFAULT_BUDGET


def checkpoint_path(store_dir: str, label: str) -> str:
    import os

    safe = label.replace(":", "_").replace("+", "_")
    return os.path.join(store_dir, f"{safe}.mc.json")


def mc_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="scord-experiments mc",
        description="Enumerate warp interleavings with DPOR and prove "
        "racy / race-free verdicts (see docs/model_checking.md).",
    )
    parser.add_argument(
        "targets", nargs="+", metavar="TARGET",
        help="micro:<name>, app:<NAME>[+flag...], litmus:<name>, or a "
        "group: micros, apps (each app flagless and once per race flag), "
        "litmus, suite, all (see docs/scor_suite.md)",
    )
    parser.add_argument(
        "--budget", type=int, default=None, metavar="N",
        help=f"max schedules per target (default {DEFAULT_BUDGET})",
    )
    parser.add_argument(
        "--exhaustive", action="store_true",
        help="keep exploring after the first race (default: stop — the "
        "witness already proves the verdict)",
    )
    parser.add_argument(
        "--no-probes", action="store_true",
        help="skip the greedy per-block unfairness probes",
    )
    parser.add_argument(
        "--detector", default="scord", metavar="LABEL",
        help="detector judging each schedule (scord|base|none, default "
        "scord; base = the uncached base design, immune to the metadata "
        "aliasing that hides UTS block_exch_global from cached ScoRD)",
    )
    parser.add_argument(
        "--store", metavar="DIR", default=None,
        help="frontier checkpoint directory (one file per target)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="continue from checkpoints under --store",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="compare each verdict against ground truth; exit 1 on any "
        "mismatch or inconclusive (budget_exhausted) verdict",
    )
    parser.add_argument(
        "--json-out", metavar="PATH", default=None,
        help="write all reports as a JSON list to PATH (atomic)",
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write mc.* counters as Prometheus text to PATH "
        "(and JSON to PATH.json)",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the per-target summaries on stdout",
    )
    args = parser.parse_args(argv)
    if args.resume and not args.store:
        parser.error("--resume needs --store")
    if args.budget is not None and args.budget < 1:
        parser.error("--budget must be >= 1")

    import os

    from repro.common.errors import ReproError
    from repro.mc.explorer import explore
    from repro.mc.report import render_report
    from repro.mc.targets import resolve_target
    from repro.targets import expand_targets

    try:
        targets = [
            resolve_target(target.label, detector=args.detector)
            for target in expand_targets(args.targets)
        ]
    except ReproError as err:
        parser.error(str(err))

    telemetry = None
    if args.metrics_out:
        from repro.telemetry import Telemetry

        telemetry = Telemetry.disabled()

    budget = args.budget if args.budget is not None else DEFAULT_BUDGET
    if args.store:
        os.makedirs(args.store, exist_ok=True)

    reports = []
    mismatches = []
    for target in targets:
        report = explore(
            target,
            budget=budget,
            stop_on_race=not args.exhaustive,
            probes=not args.no_probes,
            checkpoint_path=(
                checkpoint_path(args.store, target.label)
                if args.store else None
            ),
            resume=args.resume,
            telemetry=telemetry,
        )
        reports.append(report)
        if not args.quiet:
            print(render_report(report))
        if args.check:
            problem = _check_verdict(report)
            if problem:
                mismatches.append(problem)
                print(f"CHECK FAILED: {problem}", file=sys.stderr)

    if args.json_out:
        from repro.experiments.store import atomic_write_text

        atomic_write_text(
            args.json_out,
            json.dumps(reports, indent=2, sort_keys=True) + "\n",
        )
        print(f"[mc reports written to {args.json_out}]", file=sys.stderr)
    if telemetry is not None:
        for written in telemetry.export(None, args.metrics_out):
            print(f"[telemetry written to {written}]", file=sys.stderr)
    if args.check and mismatches:
        print(
            f"[{len(mismatches)}/{len(reports)} target(s) failed the "
            "ground-truth check]",
            file=sys.stderr,
        )
        return 1
    return 0


def _check_verdict(report: dict):
    """Ground-truth mismatch description, or None when consistent."""
    expected = report.get("expected_racy")
    if expected is None:
        return None
    verdict = report["verdict"]
    if expected and verdict != "proven_racy":
        return (
            f"{report['target']}: injected race not proven "
            f"(verdict {verdict})"
        )
    if not expected and verdict != "proven_race_free":
        return (
            f"{report['target']}: race-free config not proven "
            f"(verdict {verdict}"
            + (f", types {report['race_types']}" if report["racy"] else "")
            + ")"
        )
    return None
