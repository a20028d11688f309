"""Wire formats for scord-serve: submission and report schemas.

Two stamped document types cross the wire (mirroring the repo's other
report schemas — ``scolint-report/v1``, ``fuzz-report/v1``,
``mc-report/v1``):

``service-job/v1``
    Both the submission body of ``POST /v1/jobs`` and the status
    document returned by ``POST /v1/jobs`` (202) and
    ``GET /v1/jobs/{id}`` (200).

``service-report/v1``
    The full result document from ``GET /v1/jobs/{id}/report``.

Errors are uniform JSON envelopes ``{"error": {"code", "message", ...}}``
with machine-stable codes (:data:`ERROR_CODES`).  Validation here is
deliberately strict and synchronous: a submission either parses into
plain typed values (unit specs / a fuzz program) or raises
:class:`ServiceError` with the HTTP status the daemon should answer.
"""

from __future__ import annotations

from typing import Optional

JOB_SCHEMA = "service-job/v1"
REPORT_SCHEMA = "service-report/v1"

#: machine-stable error codes -> the HTTP status they ride on.
#: Documented one-for-one in docs/service.md ("Error codes").
ERROR_CODES = {
    "malformed-json": 400,
    "bad-request": 400,
    "unknown-job": 404,
    "not-found": 404,
    "method-not-allowed": 405,
    "static-race": 422,
    "quota-exceeded": 429,
    "internal": 500,
    "draining": 503,
}

#: hard ceiling on units per submission regardless of quota state
MAX_UNITS_PER_JOB = 4096


class ServiceError(Exception):
    """A request the daemon must refuse, with its HTTP mapping."""

    def __init__(self, code: str, message: str, detail: Optional[dict] = None):
        if code not in ERROR_CODES:
            raise ValueError(f"unknown service error code {code!r}")
        super().__init__(message)
        self.code = code
        self.status = ERROR_CODES[code]
        self.message = message
        self.detail = detail or {}

    def to_dict(self) -> dict:
        body = {"code": self.code, "message": self.message}
        body.update(self.detail)
        return {"error": body}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ServiceError("bad-request", message)


def parse_unit(payload, index: int):
    """One campaign unit dict -> a :class:`RunSpec`, validated."""
    from repro.experiments.campaign import SPEC_SCHEMA, RunSpec
    from repro.experiments.runner import DETECTORS, MEMORY_PRESETS
    from repro.scor.apps.registry import ALL_APPS

    _require(
        isinstance(payload, dict), f"units[{index}] must be an object"
    )
    known_apps = {app.name for app in ALL_APPS}
    app = payload.get("app")
    _require(
        isinstance(app, str) and app in known_apps,
        f"units[{index}].app must be one of {sorted(known_apps)}",
    )
    detector = payload.get("detector", "scord")
    _require(
        detector in DETECTORS,
        f"units[{index}].detector must be one of {sorted(DETECTORS)}",
    )
    memory = payload.get("memory", "default")
    _require(
        memory in MEMORY_PRESETS,
        f"units[{index}].memory must be one of {list(MEMORY_PRESETS)}",
    )
    races = payload.get("races", [])
    _require(
        isinstance(races, list)
        and all(isinstance(r, str) for r in races),
        f"units[{index}].races must be a list of strings",
    )
    seed = payload.get("seed", 1)
    _require(
        isinstance(seed, int) and not isinstance(seed, bool),
        f"units[{index}].seed must be an integer",
    )
    # Reuse the spec schema's own constructor so the service accepts
    # exactly what the offline campaign runs.
    return RunSpec.from_dict(
        {
            "schema": SPEC_SCHEMA,
            "app": app,
            "detector": detector,
            "memory": memory,
            "races": sorted(races),
            "seed": seed,
        }
    )


def parse_program(payload: dict):
    """A ``fuzz-program/v1`` body -> (program, detector)."""
    from repro.experiments.runner import DETECTORS
    from repro.fuzz.program import FuzzProgram, ProgramError

    _require(
        "seeds" not in payload,
        "seeds is not a field of a program job: the program runs once, "
        "on its native schedule",
    )
    _require(
        isinstance(payload.get("program"), dict),
        "program must be a fuzz-program/v1 object",
    )
    try:
        program = FuzzProgram.from_dict(payload["program"])
    except (ProgramError, KeyError, TypeError, ValueError) as err:
        raise ServiceError(
            "bad-request", f"program does not parse: {err}"
        ) from None
    detector = payload.get("detector", "scord")
    _require(
        detector in DETECTORS,
        f"detector must be one of {sorted(DETECTORS)}",
    )
    return program, detector


def parse_submission(payload) -> dict:
    """Validate a ``POST /v1/jobs`` body into plain typed fields.

    Returns ``{"kind": "campaign", "specs": [RunSpec, ...]}`` or
    ``{"kind": "program", "program": FuzzProgram, "detector": str,
    "on_static_race": "reject"|"accept"}``.
    """
    _require(isinstance(payload, dict), "submission must be a JSON object")
    schema = payload.get("schema")
    _require(
        schema == JOB_SCHEMA,
        f"schema must be {JOB_SCHEMA!r} (got {schema!r})",
    )
    has_units = "units" in payload
    has_program = "program" in payload
    _require(
        has_units != has_program,
        "submission must carry exactly one of 'units' or 'program'",
    )
    if has_units:
        units = payload["units"]
        _require(
            isinstance(units, list) and units,
            "units must be a non-empty list",
        )
        _require(
            len(units) <= MAX_UNITS_PER_JOB,
            f"units exceeds the per-job ceiling ({MAX_UNITS_PER_JOB})",
        )
        specs = [parse_unit(unit, i) for i, unit in enumerate(units)]
        return {"kind": "campaign", "specs": specs}
    program, detector = parse_program(payload)
    on_static_race = payload.get("on_static_race", "reject")
    _require(
        on_static_race in ("reject", "accept"),
        "on_static_race must be 'reject' or 'accept'",
    )
    return {
        "kind": "program",
        "program": program,
        "detector": detector,
        "on_static_race": on_static_race,
    }


def client_name(header_value: Optional[str], payload) -> str:
    """Resolve the client identity: header first, then body field."""
    if header_value:
        name = header_value.strip()
        if name:
            _require(len(name) <= 128, "client name too long (max 128)")
            return name
    if isinstance(payload, dict):
        name = payload.get("client")
        if isinstance(name, str) and name.strip():
            _require(len(name) <= 128, "client name too long (max 128)")
            return name.strip()
    return "anonymous"
