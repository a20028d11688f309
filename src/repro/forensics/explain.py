"""``scord-experiments explain``: forensic explanations on demand.

Targets come in two shapes:

* a suite target — ``micro:<name>``, ``app:<NAME>[+flag...]`` or
  ``litmus:<name>``, the grammar of :mod:`repro.targets` (see
  docs/scor_suite.md) that ``lint`` and ``mc`` accept too — re-run
  under ScoRD with a full-capture flight recorder, explaining every
  race it detects;
* a path — a ``forensics-report/v1`` bundle JSON (or an ``index.json``
  / bundle directory written by ``--forensics-out``), rendered without
  re-simulating anything.  An ``mc-report/v1`` file (or a list of
  them, as ``scord-experiments mc --json-out`` writes) is recognized
  too: its witness decision vector is replayed through the controlled
  scheduler, deterministically reproducing the proven race, and the
  reproduced execution is explained like any live one.
"""

from __future__ import annotations

import json
import os
from typing import List, Optional, Tuple

from repro.forensics.bundle import bundles_for_gpu


def render_bundle(bundle: dict, with_trace: bool = True) -> str:
    """A human-readable rendering: narrative plus the trace slice."""
    lines = [
        f"=== forensic bundle ({bundle.get('schema', '?')}, "
        f"source {bundle.get('source', '?')}) ===",
        bundle.get("narrative", "(no narrative)"),
    ]
    slice_events = bundle.get("trace_slice") or []
    if with_trace and slice_events:
        lines.append("")
        lines.append(f"trace slice ({len(slice_events)} event(s), "
                     f"oldest first):")
        for event in slice_events:
            cycle = event.get("cycle", "?")
            kind = event.get("kind", "?")
            who = f"b{event.get('block', '?')}w{event.get('warp', '?')}"
            detail = []
            if event.get("addr") is not None:
                detail.append(f"addr=0x{event['addr']:x}")
            if event.get("array"):
                detail.append(f"array={event['array']}")
            if event.get("scope"):
                detail.append(f"scope={event['scope']}")
            if event.get("strong") is not None:
                detail.append("strong" if event["strong"] else "plain")
            if event.get("pc"):
                pc = event["pc"]
                detail.append(f"pc={pc[0]}:{pc[1]}")
            if kind == "race":
                detail.append(f"type={event.get('extra', {}).get('type')}")
            lines.append(
                f"  cycle {cycle:>8}  {kind:<7} {who:<8} "
                + " ".join(detail)
            )
    return "\n".join(lines)


def render_bundles(bundles: List[dict], with_trace: bool = True) -> str:
    if not bundles:
        return "no races detected: nothing to explain"
    parts = [render_bundle(bundle, with_trace=with_trace)
             for bundle in bundles]
    return "\n\n".join(parts)


def _load_bundles_from_path(path: str) -> List[dict]:
    """Bundle(s) from a bundle JSON, an index.json, or a bundle dir."""
    if os.path.isdir(path):
        index = os.path.join(path, "index.json")
        if not os.path.exists(index):
            raise FileNotFoundError(
                f"{path!r} has no index.json — not a forensics bundle "
                f"directory"
            )
        return _load_bundles_from_path(index)
    with open(path, "r") as handle:
        payload = json.load(handle)
    if isinstance(payload, list):
        if payload and all(
            isinstance(item, dict)
            and item.get("schema") == "mc-report/v1"
            for item in payload
        ):
            out = []
            for item in payload:
                out.extend(_bundles_from_mc_report(item))
            return out
        raise ValueError(f"{path!r} is not a forensics bundle or index")
    if payload.get("schema") == "mc-report/v1":
        return _bundles_from_mc_report(payload)
    if "narrative" in payload or "race" in payload:
        return [payload]
    if "bundles" in payload:  # an index.json: follow the file references
        base = os.path.dirname(os.path.abspath(path))
        out = []
        for entry in payload["bundles"]:
            with open(os.path.join(base, entry["file"]), "r") as handle:
                out.append(json.load(handle))
        return out
    raise ValueError(f"{path!r} is not a forensics bundle or index")


def _bundles_from_mc_report(report: dict) -> List[dict]:
    """Replay an ``mc-report/v1`` witness; explain the reproduced race.

    A ``proven_race_free`` / ``budget_exhausted`` report carries no
    witness: the fair schedule is replayed instead, and (by the proof)
    yields no bundles — the rendering then documents the clean run.
    Only suite targets replay (``micro:``/``app:``/``litmus:``); a fuzz
    target's program is not recoverable from its label.
    """
    from repro.common.errors import ReproError
    from repro.mc.report import replay_witness
    from repro.mc.targets import resolve_target

    try:
        target = resolve_target(
            report["target"], detector=report.get("detector", "scord")
        )
        gpu = replay_witness(target, report.get("witness"))
    except ReproError as err:
        raise ValueError(
            f"cannot replay mc witness for {report.get('target')!r}: {err}"
        ) from err
    return bundles_for_gpu(gpu, source=f"mc-witness:{report['target']}")


def explain_target(
    target: str, out_dir: Optional[str] = None
) -> Tuple[List[dict], str]:
    """Resolve *target*, producing (bundles, rendered text).

    With *out_dir*, re-simulated targets also persist their bundles
    there (path targets are already on disk and are not re-written).
    """
    if os.path.exists(target) or target.endswith(".json"):
        bundles = _load_bundles_from_path(target)
        return bundles, render_bundles(bundles)
    from repro.mc.targets import resolve_target

    # mc's uncontrolled run: ScoRD under full flight capture.
    gpu = resolve_target(target).execute(None)
    bundles = bundles_for_gpu(gpu, source=f"explain:{target}")
    if out_dir and bundles:
        from repro.forensics.bundle import write_bundles

        write_bundles(bundles, out_dir)
    return bundles, render_bundles(bundles)


def explain_main(argv) -> int:
    """``scord-experiments explain <target>`` entry point."""
    import argparse

    from repro.common.errors import ReproError

    parser = argparse.ArgumentParser(
        prog="scord-experiments explain",
        description="Explain detected races: re-run a suite target under a "
        "full-capture flight recorder and print forensic bundles naming "
        "both racing accesses and the severed happens-before edge, or "
        "render an existing bundle file.",
    )
    parser.add_argument(
        "targets", nargs="+",
        help="micro:<name>, app:<NAME>[+flag...], litmus:<name> (see "
        "docs/scor_suite.md), or a path to a forensics-report/v1 bundle "
        "JSON / index.json / bundle directory / mc-report/v1 file",
    )
    parser.add_argument(
        "--no-trace", action="store_true",
        help="omit the trace-slice section from the rendering",
    )
    parser.add_argument(
        "--out", metavar="DIR",
        help="also write the bundles (JSON + narrative + index) to DIR",
    )
    args = parser.parse_args(argv)
    status = 0
    for target in args.targets:
        try:
            bundles, _ = explain_target(target, out_dir=args.out)
        except (ReproError, KeyError, FileNotFoundError, ValueError) as err:
            print(f"[explain-error] {err}")
            status = 1
            continue
        print(f"--- {target}: {len(bundles)} bundle(s) ---")
        print(render_bundles(bundles, with_trace=not args.no_trace))
        print()
    return status
