"""Run a generated program through each oracle, uniformly.

All three oracles reduce to the same verdict shape so the differential
harness can compare them without caring which produced what:

``{"racy": bool, "types": [race-type value, ...]}``

plus oracle-specific detail.  The static verdict is deterministic (one
scolint pass).  The dynamic verdict is one ScoRD run of the program on
the engine's native schedule: a dynamic detector judges the one
execution it watches.  Other schedules are the mc oracle's: a bounded
DPOR exploration (:mod:`repro.mc`) that *enumerates* them, so its
``racy`` carries a verdict field that says whether the answer is
proven or merely budget-limited.

The dynamic and mc oracles take an optional *guard*
(:class:`~repro.common.guard.Watchdog`), armed in every GPU they build:
a pool worker's watchdog beats from inside each simulation and enforces
the unit's deadline, whose expiry is a unit timeout, never a verdict.
"""

from __future__ import annotations

from repro.arch.config import GPUConfig
from repro.common.errors import WatchdogTimeout
from repro.fuzz.program import FuzzProgram, run_program

#: default schedule budget for the mc oracle — small: fuzz programs
#: are tiny, and the fair + probe schedules plus a few DPOR reversals
#: usually settle the verdict
DEFAULT_MC_BUDGET = 24


def _config() -> GPUConfig:
    return GPUConfig.scaled_default()


def static_verdict(program: FuzzProgram) -> dict:
    """One scolint pass over *program* (schedule-independent)."""
    from repro.scolint import LintGPU, analyze

    gpu = LintGPU(config=_config())
    run_program(gpu, program)
    findings = analyze(gpu)
    types = sorted({f.race_type.value for f in findings})
    return {
        "racy": bool(findings),
        "types": types,
        "rules": sorted({f.rule for f in findings}),
        "findings": len(findings),
    }


def dynamic_verdict(
    program: FuzzProgram, detector: str = "scord", guard=None
) -> dict:
    """One dynamic ScoRD run of *program* on its native schedule."""
    from repro.engine.gpu import GPU
    from repro.experiments.runner import DETECTORS

    gpu = GPU(
        config=_config(), detector_config=DETECTORS[detector], guard=guard
    )
    run_program(gpu, program)
    types = sorted({r.race_type.value for r in gpu.races.unique_races})
    return {"racy": bool(types), "types": types, "detector": detector}


def mc_verdict(
    program: FuzzProgram,
    budget: int = DEFAULT_MC_BUDGET,
    detector: str = "scord",
    guard=None,
) -> dict:
    """Bounded DPOR schedule enumeration of *program* (the third
    oracle).  ``racy=True`` is always conclusive (a witness schedule
    exists); ``racy=False`` is conclusive only when ``verdict`` is
    ``proven_race_free`` — ``budget_exhausted`` means the frontier was
    not drained and the comparison must treat the oracle as abstaining.
    """
    from repro.mc.explorer import explore
    from repro.mc.targets import target_from_program

    target = target_from_program(program, detector=detector, guard=guard)
    report = explore(target, budget=budget, stop_on_race=True)
    return {
        "racy": report["racy"],
        "types": list(report["race_types"]),
        "verdict": report["verdict"],
        "schedules_explored": report["schedules_explored"],
        "schedules_pruned": report["schedules_pruned"],
        "prune_ratio": report["prune_ratio"],
        "errors": report["errors"],
        "budget": int(budget),
        "detector": detector,
    }


def _safe(fn, *args, **kwargs) -> dict:
    try:
        return fn(*args, **kwargs)
    except WatchdogTimeout:
        raise  # the unit's deadline, not the program's verdict
    except Exception as exc:  # noqa: BLE001 — oracle crash IS the finding
        return {
            "error": f"{type(exc).__name__}: {exc}",
            "racy": None,
            "types": [],
        }


def safe_static_verdict(program: FuzzProgram) -> dict:
    """:func:`static_verdict`, with oracle crashes folded into the
    verdict (``{"error": ...}``) instead of raised.  Both the engine
    and scolint are deterministic, so a crash verdict replays
    byte-identically — a crashing program can live in the corpus."""
    return _safe(static_verdict, program)


def safe_dynamic_verdict(
    program: FuzzProgram, detector: str = "scord", guard=None
) -> dict:
    """:func:`dynamic_verdict` with crashes folded in (see above)."""
    return _safe(dynamic_verdict, program, detector, guard)


def safe_mc_verdict(
    program: FuzzProgram,
    budget: int = DEFAULT_MC_BUDGET,
    detector: str = "scord",
    guard=None,
) -> dict:
    """:func:`mc_verdict` with crashes folded in (see above).

    Per-schedule engine aborts are *not* crashes — the explorer folds
    those into the report's ``errors`` count; only a failure of the
    exploration machinery itself produces an ``{"error": ...}``
    verdict."""
    return _safe(mc_verdict, program, budget, detector, guard)


def unit_verdict(unit, guard=None) -> dict:
    """The verdict of one program unit
    (:class:`~repro.experiments.campaign.ProgramSpec`): its oracle run,
    crashes folded in, under *guard*."""
    if unit.oracle == "mc":
        return safe_mc_verdict(unit.program, unit.budget, unit.detector, guard)
    return safe_dynamic_verdict(unit.program, unit.detector, guard)
