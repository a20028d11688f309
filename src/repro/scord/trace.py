"""Canonical race-report export: the golden-trace regression form.

The detector's verdict, reduced to what should only change when
*detection* changes, rendered byte-stably for the goldens under
``tests/test_scord/golden/`` and the equivalence tier.  (The per-access
event stream is recorded by :class:`~repro.scord.capture.FlightCapture`;
see :mod:`repro.telemetry.flight`.)
"""

from __future__ import annotations

#: bump when the canonical report shape changes incompatibly (fixtures
#: under tests/test_scord/golden/ must be regenerated)
RACE_REPORT_SCHEMA = 1


def race_report_dict(report) -> dict:
    """Canonical, machine-stable form of a detector race report.

    Captures the detector's *verdict* — each unique race's type, scope
    class, target array, and racing source location — sorted into a
    stable order, with volatile detail (cycle numbers, warp ids, raw
    addresses) excluded so the fixture only breaks when *detection*
    drifts, not when timing or allocation layout is tuned.
    """
    races = sorted(
        {
            (
                record.race_type.value,
                record.scope_class.value,
                record.array_name or "?",
                record.pc[0],
                record.pc[1],
            )
            for record in report.unique_races
        }
    )
    return {
        "schema": RACE_REPORT_SCHEMA,
        "unique_races": report.unique_count,
        "races": [
            {
                "type": race_type,
                "scope_class": scope_class,
                "array": array,
                "kernel": kernel,
                "line": line,
            }
            for race_type, scope_class, array, kernel, line in races
        ],
    }


def race_report_json(report) -> str:
    """Byte-stable JSON text of :func:`race_report_dict`.

    Golden tests compare this bit-for-bit, so the rendering is pinned:
    sorted keys, two-space indent, trailing newline.
    """
    import json

    return json.dumps(race_report_dict(report), sort_keys=True, indent=2) + "\n"
