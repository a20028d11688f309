"""``mc-report/v1``: the explorer's verdict artifact.

A report is schema-stamped canonical JSON like every other artifact in
the repo (trace/v1, fuzz-report/v1, forensics bundles): sorted keys,
deterministic content.  The *canonical* form strips the volatile fields
(wall-clock) so golden fixtures and the kill/resume drill can compare
bit-for-bit.

The witness is a recorded decision vector, truncated just past the
first racing step; :func:`replay_witness` feeds it back through a
fresh :class:`~repro.mc.control.ScheduleControl`, deterministically
reproducing the race (the prefix forces every step up to and including
the racing one) — that is how ``scord-experiments explain`` turns an
mc report into a forensics bundle.
"""

from __future__ import annotations

from typing import Optional

MC_REPORT_SCHEMA = "mc-report/v1"

#: report fields that vary run to run and are excluded from the
#: canonical form (golden fixtures, resume bit-identity)
VOLATILE_FIELDS = ("elapsed_seconds",)

_VERDICT_BY_REASON = {
    "exhausted": "proven_race_free",
    "budget": "budget_exhausted",
}


def build_report(state, target, stop_on_race: bool, probes: bool,
                 elapsed: float) -> dict:
    """Assemble the report dict from a finished explorer state."""
    racy = bool(state.race_hits)
    if racy:
        verdict = "proven_racy"
    else:
        verdict = _VERDICT_BY_REASON.get(
            state.finish_reason, "budget_exhausted"
        )
        if verdict == "proven_race_free" and state.frontier_truncated:
            # The node tree was capped (MAX_NODES): the frontier that
            # drained was not the whole frontier, so exhaustion proves
            # nothing beyond the explored depth.
            verdict = "budget_exhausted"
    # A capped naive estimate is a floor, not a count: no ratio.
    prune_ratio = (
        None if state.naive_capped
        else round(max(state.naive, 1) / max(1, state.explored), 3)
    )
    report = {
        "schema": MC_REPORT_SCHEMA,
        "target": target.label,
        "detector": target.detector,
        "verdict": verdict,
        "racy": racy,
        "expected_racy": target.racy,
        "race_types": sorted(state.race_types),
        "schedules_explored": state.explored,
        "schedules_pruned": state.pruned,
        "naive_schedules": state.naive,
        "naive_capped": state.naive_capped,
        "prune_ratio": prune_ratio,
        "choice_points": state.choice_points,
        "trace_steps": state.trace_steps,
        "max_frontier_depth": state.max_depth,
        "frontier_truncated": state.frontier_truncated,
        "budget": state.budget,
        "stop_on_race": stop_on_race,
        "probes": probes,
        "errors": state.errors,
        "witness": state.race_hits[0] if state.race_hits else None,
        "witnesses": list(state.race_hits),
        "outcomes": dict(state.outcomes),
        "elapsed_seconds": elapsed,
    }
    return report


def canonical_report(report: dict) -> dict:
    """The report minus volatile fields — the bit-identity surface."""
    return {
        key: value for key, value in report.items()
        if key not in VOLATILE_FIELDS
    }


def replay_witness(target, witness: Optional[dict]):
    """Re-run *target* under a witness decision vector; returns the GPU.

    With ``witness=None`` the fair schedule is replayed (useful for
    proven_race_free reports: the bundle then documents the clean run).
    """
    from repro.mc.control import ScheduleControl

    decisions = witness["decisions"] if witness else ()
    control = ScheduleControl(prefix=decisions)
    return target.execute(control)


def render_report(report: dict) -> str:
    """Human-readable one-target summary for the CLI."""
    ratio = report["prune_ratio"]
    lines = [
        f"{report['target']}: {report['verdict']}"
        + (f" ({', '.join(report['race_types'])})"
           if report["race_types"] else ""),
        f"  schedules: {report['schedules_explored']} explored, "
        f"{report['schedules_pruned']} pruned, "
        f"naive {report['naive_schedules']}"
        + ("+" if report["naive_capped"] else "")
        + f" (prune ratio {'n/a' if ratio is None else ratio})",
        f"  frontier: {report['choice_points']} choice points, "
        f"max depth {report['max_frontier_depth']}, "
        f"{report['trace_steps']} steps in the fair trace",
    ]
    witness = report.get("witness")
    if witness:
        lines.append(
            f"  witness: schedule #{witness['schedule_index']} "
            f"({witness['source']}, "
            f"{len(witness['decisions'])} decisions)"
        )
    if report.get("outcomes"):
        outcomes = ", ".join(
            f"{key}×{count}"
            for key, count in sorted(report["outcomes"].items())
        )
        lines.append(f"  outcomes: {outcomes}")
    if report.get("errors"):
        lines.append(f"  errors: {report['errors']} schedule(s) aborted")
    lines.append(f"  elapsed: {report['elapsed_seconds']}s")
    return "\n".join(lines)
