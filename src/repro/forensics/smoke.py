"""CI forensics smoke: one racy target per race type, bundles validated.

``python -m repro.forensics.smoke --out DIR`` runs one racy
micro-benchmark for every :class:`~repro.scord.races.RaceType` a micro
can surface, plus a constructed ``WEAK_POLL`` fuzz program for
``NOT_STRONG`` (no micro injects it — the 32-micro suite is pinned),
each under a full-capture flight recorder.  It then asserts, for every
detected race:

* a forensic bundle exists naming both racing accesses;
* the severed happens-before edge matches the race type's catalog entry;
* the bundle's scolint rule agrees with the static classification
  (``RULE_FOR_TYPE``).

Exit status is non-zero on any violation; bundles are written to
``--out`` for upload as CI artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.forensics.bundle import bundles_for_gpu, forensics_summary, write_bundles
from repro.forensics.hb import edge_for
from repro.scolint.model import RULE_FOR_TYPE
from repro.scord.races import RaceType

#: one representative racy micro per micro-coverable race type
SMOKE_MICROS = {
    RaceType.MISSING_BLOCK_FENCE: "lock_none_same_block",
    RaceType.MISSING_DEVICE_FENCE: "fence_missing_cross_block",
    RaceType.SCOPED_FENCE: "fence_block_scope_cross_block",
    RaceType.SCOPED_ATOMIC: "atomic_block_scope_cross_block",
    RaceType.LOCK: "lock_missing_on_store",
}


def weak_poll_micro():
    """A correct fence+flag handoff whose consumer load is *plain*.

    No registered micro injects NOT_STRONG (the 32-micro suite is
    pinned), so smoke coverage for the strong-access edge comes from
    this constructed, unregistered micro: the producer publishes
    correctly (store, device fence, device-atomic flag) but the
    consumer reads the payload with a plain non-volatile load — the
    fence chain exists and fences only order strong operations, which
    is exactly the severed edge the catalog names.
    """
    from repro.isa.scopes import Scope
    from repro.scor.micro.base import (
        Micro,
        Placement,
        T1_DELAY,
        set_flag,
        wait_flag,
    )

    def kernel(ctx, role, mem):
        if role == 0:
            yield ctx.st(mem.data, 0, 42, volatile=True)
            yield ctx.fence(Scope.DEVICE)
            yield from set_flag(ctx, mem.flag)
        elif role == 1:
            yield ctx.compute(T1_DELAY)
            if (yield from wait_flag(ctx, mem.flag)):
                value = yield ctx.ld(mem.data, 0)  # plain, not strong
                yield ctx.st(mem.aux, 0, value, volatile=True)

    return Micro(
        name="weak_poll_consumer",
        category="fence",
        racey=True,
        expected_types=frozenset({RaceType.NOT_STRONG}),
        placement=Placement.CROSS_BLOCK,
        description="fence+flag handoff, but the consumer load is plain",
        kernel=kernel,
    )


def _capture_telemetry():
    from repro.telemetry import FlightConfig, Telemetry, TraceConfig

    return Telemetry(
        TraceConfig(enabled=False), flight=FlightConfig(mode="full")
    )


def _run_weak_poll_captured():
    from repro.arch.detector_config import DetectorConfig
    from repro.scor.micro.base import run_micro

    return run_micro(
        weak_poll_micro(),
        detector_config=DetectorConfig.scord(),
        telemetry=_capture_telemetry(),
    )


def check_bundles(target: str, gpu, expected_types) -> list:
    """Validate the forensic invariants; returns failure strings."""
    failures = []
    races = gpu.races.unique_races
    bundles = bundles_for_gpu(gpu, source=f"smoke:{target}")
    if not races:
        failures.append(f"{target}: expected a detected race, saw none")
    if len(bundles) != len(races):
        failures.append(
            f"{target}: {len(races)} unique race(s) but "
            f"{len(bundles)} bundle(s)"
        )
    detected = {record.race_type for record in races}
    missing = set(expected_types) - detected
    if missing:
        failures.append(
            f"{target}: expected race type(s) not detected: "
            f"{sorted(t.value for t in missing)}"
        )
    for bundle in bundles:
        race_type = RaceType(bundle["race"]["type"])
        edge = edge_for(race_type)
        if bundle["hb"]["edge"] != edge.name:
            failures.append(
                f"{target}: bundle names edge {bundle['hb']['edge']!r}, "
                f"catalog says {edge.name!r} for {race_type.value}"
            )
        if bundle["hb"]["scolint_rule"] != RULE_FOR_TYPE[race_type]:
            failures.append(
                f"{target}: bundle rule {bundle['hb']['scolint_rule']} "
                f"!= scolint {RULE_FOR_TYPE[race_type]}"
            )
        if not bundle["hb"]["rule_agrees"]:
            failures.append(f"{target}: rule_agrees is false")
        accesses = bundle["accesses"]
        for side in ("current", "previous"):
            acc = accesses[side]
            if acc["block"] is None or acc["warp"] is None:
                failures.append(
                    f"{target}: bundle does not name the {side} access"
                )
        if not bundle.get("narrative"):
            failures.append(f"{target}: bundle has no narrative")
        if not bundle.get("trace_slice"):
            failures.append(f"{target}: bundle has an empty trace slice")
    return failures


def main(argv=None) -> int:
    from repro.mc.targets import resolve_target

    parser = argparse.ArgumentParser(
        prog="python -m repro.forensics.smoke",
        description="Run one racy target per race type under flight "
        "capture and validate the forensic bundles.",
    )
    parser.add_argument(
        "--out", metavar="DIR", default="forensics-smoke",
        help="directory for the bundle artifacts (default "
        "./forensics-smoke)",
    )
    args = parser.parse_args(argv)

    failures = []
    all_bundles = []
    for race_type, micro_name in sorted(
        SMOKE_MICROS.items(), key=lambda item: item[0].value
    ):
        target = f"micro:{micro_name}"
        print(f"[smoke] {target} (expect {race_type.value})", flush=True)
        gpu = resolve_target(target).execute(None)
        failures += check_bundles(target, gpu, {race_type})
        bundles = bundles_for_gpu(gpu, source=f"smoke:{target}")
        write_bundles(
            bundles, os.path.join(args.out, micro_name)
        )
        all_bundles += bundles

    target = "micro:weak_poll_consumer (unregistered)"
    print(f"[smoke] {target} (expect not-strong)", flush=True)
    gpu = _run_weak_poll_captured()
    failures += check_bundles(target, gpu, {RaceType.NOT_STRONG})
    bundles = bundles_for_gpu(gpu, source=f"smoke:{target}")
    write_bundles(bundles, os.path.join(args.out, "weak_poll_consumer"))
    all_bundles += bundles

    summary = forensics_summary(all_bundles)
    summary["failures"] = failures
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "summary.json"), "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(
        f"[smoke] {summary['race_bundles']} bundle(s), "
        f"{summary['rule_agreement']} rule-agreeing, "
        f"{len(failures)} failure(s)"
    )
    for failure in failures:
        print(f"[smoke-FAIL] {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
