"""Run a generated program through each oracle, uniformly.

All three oracles reduce to the same verdict shape so the differential
harness can compare them without caring which produced what:

``{"racy": bool, "types": [race-type value, ...]}``

plus oracle-specific detail.  The static verdict is deterministic (one
scolint pass).  The dynamic verdict is a *seed sweep*: the engine is
deterministic per schedule, so distinct schedules come from compiling
the program with distinct jitter seeds (a per-thread compute prologue —
the memory behaviour, and hence the ground truth, is unchanged) and the
sweep unions what any schedule surfaced.  The mc verdict (PR 9) is a
bounded DPOR exploration (:mod:`repro.mc`): instead of sampling
schedules it *enumerates* them, so ``racy`` carries a verdict field
that says whether the answer is proven or merely budget-limited.

The dynamic and mc oracles take an optional *guard*
(:class:`~repro.common.guard.Watchdog`), armed in every GPU they build:
a pool worker's watchdog beats from inside each simulation and enforces
the unit's deadline, whose expiry is a unit timeout, never a verdict.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.arch.config import GPUConfig
from repro.common.errors import WatchdogTimeout
from repro.fuzz.program import FuzzProgram, run_program

#: default schedule-jitter sweep (seed 0 = the unperturbed schedule)
DEFAULT_SEEDS: Tuple[int, ...] = (0, 1, 2)

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
    program: FuzzProgram,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    detector: str = "scord",
    guard=None,
) -> dict:
    """Dynamic ScoRD over a schedule-jitter seed sweep of *program*."""
    from repro.engine.gpu import GPU
    from repro.experiments.runner import DETECTORS

    by_seed = {}
    union = set()
    for seed in seeds:
        gpu = GPU(
            config=_config(), detector_config=DETECTORS[detector],
            guard=guard,
        )
        run_program(gpu, program, jitter_seed=seed)
        types = sorted({r.race_type.value for r in gpu.races.unique_races})
        by_seed[str(seed)] = types
        union.update(types)
    return {
        "racy": bool(union),
        "types": sorted(union),
        "seeds": [int(s) for s in seeds],
        "by_seed": by_seed,
        "detector": detector,
    }


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
    program: FuzzProgram,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    detector: str = "scord",
    guard=None,
) -> dict:
    """:func:`dynamic_verdict` with crashes folded in (see above)."""
    return _safe(dynamic_verdict, program, seeds, detector, guard)


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
    return safe_dynamic_verdict(
        unit.program, (unit.seed,), unit.detector, guard
    )
