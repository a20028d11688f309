"""The differential fuzz campaign: generate, cross-check, shrink, persist.

:func:`check_program` is the differential comparison for ONE program:
ground truth (by construction) vs scolint vs one dynamic ScoRD run on
the native schedule — plus, with ``mc=True``, bounded DPOR schedule
enumeration (:mod:`repro.mc`) as a third oracle.  It returns
``None`` on agreement or a classified disagreement:

=======================  ==============================================
kind                     meaning
=======================  ==============================================
static-false-positive    scolint flags a provably race-free program
static-miss              scolint passes a program that is racy
static-type-mismatch     scolint is racy but labels ≠ expected labels
                         (scolint is deterministic and per-phase
                         complete, so the match is exact set equality)
dynamic-false-positive   the ScoRD run reports on race-free code
dynamic-miss             the ScoRD run reports nothing on racy code
dynamic-unexpected-type  the ScoRD run reports a label outside the
                         expected set (subset match only: a dynamic
                         detector may legitimately see a race through
                         fewer classes than injected)
mc-false-positive        the explorer found a witness schedule on
                         provably race-free code
mc-miss                  the explorer *proved* race-free (exhausted
                         frontier, no truncation) on racy code — a
                         ``budget_exhausted`` non-finding is an
                         abstention, never a disagreement
mc-unexpected-type       a witness schedule carries a label outside
                         the expected set (subset match, as dynamic)
static-crash /           an oracle raised instead of returning; the
dynamic-crash /          exception is the verdict (all oracles are
mc-crash                 deterministic, so crashes replay stably)
=======================  ==============================================

With ``mc=True`` the ``mc`` oracle runs beside the other two: its unit
(:class:`~repro.experiments.campaign.ProgramSpec`) goes to a one-worker
:class:`~repro.experiments.supervisor.PoolSupervisor` shared by the
process, while the caller runs scolint and the ScoRD run.  The pool
starts on the first such check when the process may use two or more
CPUs, and is closed at exit; one usable CPU or a degraded pool runs
``mc`` in-process after the ScoRD run.  Both paths give the same verdicts.

:func:`fuzz_campaign` drives hypothesis over the shared strategies in
rounds: each round either exhausts the remaining example budget in
agreement, or raises on the first *novel* disagreement so hypothesis
shrinks it to a minimal program, which is persisted to the corpus and
masked (by content digest) for subsequent rounds.  Every evaluated
program is memoized by digest, so shrinking never re-simulates a
program twice and the budget counts unique programs.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
from concurrent.futures import Future
from typing import Dict, Iterable, Optional

from hypothesis import HealthCheck, Verbosity, given
from hypothesis import seed as hypothesis_seed
from hypothesis import settings as hypothesis_settings

from repro.fuzz.corpus import load_corpus, make_entry, record_entry
from repro.fuzz.oracles import (
    DEFAULT_MC_BUDGET,
    safe_dynamic_verdict,
    safe_mc_verdict,
    safe_static_verdict,
)
from repro.fuzz.program import FuzzProgram, program_digest
from repro.fuzz.strategies import programs

REPORT_SCHEMA = "fuzz-report/v1"


#: the process's mc pool (None until the first pooled check)
_pool = None
_pool_lock = threading.Lock()


def mc_pool():
    """The process's one-worker mc pool, or None for the in-process floor.

    Started on first use when the process may use two or more CPUs and
    closed at exit; a degraded or closed pool is the floor.
    """
    global _pool
    with _pool_lock:
        if _pool is None:
            if len(os.sched_getaffinity(0)) < 2:
                return None
            from repro.experiments.supervisor import PoolConfig, PoolSupervisor

            _pool = PoolSupervisor(PoolConfig(workers=1))
            atexit.register(_pool.close)
        pool = _pool
    if pool.degraded or pool.closed:
        return None
    return pool


def _start_mc(program, budget, detector) -> Optional[Future]:
    """Send *program*'s mc unit to :func:`mc_pool` from a helper thread;
    None when the unit belongs on the in-process floor."""
    from repro.experiments.campaign import ProgramSpec

    pool = mc_pool()
    if pool is None:
        return None
    unit = ProgramSpec(program, "mc", detector, budget=budget)
    future: Future = Future()

    def run() -> None:
        try:
            future.set_result(pool.execute(unit))
        except BaseException as err:  # handed to the caller's thread
            future.set_exception(err)

    threading.Thread(target=run, name="mc-unit", daemon=True).start()
    return future


def _mc_result(future: Future) -> dict:
    """The mc unit's verdict; a unit the pool failed is an mc crash."""
    from repro.common.errors import ReproError, error_code

    try:
        return future.result()
    except ReproError as err:
        failure = getattr(err, "failure", None)
        message = (
            f"{failure.category}: {failure.message}"
            if failure is not None else f"{error_code(err)}: {err}"
        )
        return {"error": message, "racy": None, "types": []}


def check_program(
    program: FuzzProgram,
    detector: str = "scord",
    mc: bool = False,
    mc_budget: int = DEFAULT_MC_BUDGET,
) -> Optional[dict]:
    """Cross-check one program; ``None`` means all oracles agree.

    The ``mc`` unit runs on :func:`mc_pool`; without one, the in-process
    floor calls :func:`safe_mc_verdict` after the ScoRD run.
    """
    expected = {t.value for t in program.expected_types()}
    racy = program.racy
    pending = _start_mc(program, mc_budget, detector) if mc else None
    static = safe_static_verdict(program)
    dynamic = safe_dynamic_verdict(program, detector)
    if pending is not None:
        mc_result = _mc_result(pending)
    elif mc:
        mc_result = safe_mc_verdict(program, mc_budget, detector)
    else:
        mc_result = None

    kind = None
    detail = ""
    if "error" in static:
        kind, detail = "static-crash", static["error"]
    elif "error" in dynamic:
        kind, detail = "dynamic-crash", dynamic["error"]
    elif mc_result is not None and "error" in mc_result:
        kind, detail = "mc-crash", mc_result["error"]
    elif not racy:
        if static["racy"]:
            kind = "static-false-positive"
            detail = f"scolint reported {static['types']} on race-free code"
        elif dynamic["racy"]:
            kind = "dynamic-false-positive"
            detail = f"ScoRD reported {dynamic['types']} on race-free code"
        elif mc_result is not None and mc_result["racy"]:
            kind = "mc-false-positive"
            detail = (f"explorer found a witness schedule reporting "
                      f"{mc_result['types']} on race-free code")
    else:
        if not static["racy"]:
            kind = "static-miss"
            detail = f"scolint missed expected {sorted(expected)}"
        elif set(static["types"]) != expected:
            kind = "static-type-mismatch"
            detail = (f"scolint labeled {static['types']}, "
                      f"expected exactly {sorted(expected)}")
        elif not dynamic["racy"]:
            kind = "dynamic-miss"
            detail = f"ScoRD missed expected {sorted(expected)}"
        elif set(dynamic["types"]) - expected:
            kind = "dynamic-unexpected-type"
            detail = (f"ScoRD labeled {dynamic['types']}, outside "
                      f"expected {sorted(expected)}")
        elif mc_result is not None and not mc_result["racy"]:
            # Only an outright PROOF of race-freedom on racy code is a
            # disagreement; a spent budget is an abstention.
            if mc_result["verdict"] == "proven_race_free":
                kind = "mc-miss"
                detail = (f"explorer proved race-free against expected "
                          f"{sorted(expected)}")
        elif mc_result is not None and set(mc_result["types"]) - expected:
            kind = "mc-unexpected-type"
            detail = (f"explorer labeled {mc_result['types']}, outside "
                      f"expected {sorted(expected)}")
    if kind is None:
        return None
    result = {
        "kind": kind,
        "detail": detail,
        "digest": program_digest(program),
        "static": static,
        "dynamic": dynamic,
    }
    if mc_result is not None:
        result["mc"] = mc_result
    return result


class _Disagreement(Exception):
    """Raised inside a probe so hypothesis shrinks the triggering input."""


def _count(telemetry, name: str, value: int = 1) -> None:
    # Metrics accumulate even on Telemetry.disabled() (tracing-off)
    # bundles, so gate only on having a bundle at all.
    if telemetry is not None:
        telemetry.metrics.counter(name).inc(value)


def fuzz_campaign(
    count: int = 200,
    seed: int = 0,
    corpus_dir=None,
    time_budget: Optional[float] = None,
    detector: str = "scord",
    mc: bool = False,
    mc_budget: int = DEFAULT_MC_BUDGET,
    telemetry=None,
    known_digests: Iterable[str] = (),
) -> dict:
    """Run a differential campaign of up to *count* unique programs.

    Existing corpus entries under *corpus_dir* (and *known_digests*)
    are masked: re-finding a known minimal program is not a new
    disagreement.  Each novel disagreement is hypothesis-shrunk,
    recorded to the corpus, then masked for the rest of the campaign.
    """
    started = time.monotonic()
    deadline = started + time_budget if time_budget else None
    known = set(known_digests)
    if corpus_dir is not None:
        known.update(entry["digest"] for _, entry in load_corpus(corpus_dir))

    memo: Dict[str, Optional[dict]] = {}
    tally = {"racy": 0, "race_free": 0, "skipped_known": 0, "crashes": 0}
    budget_exhausted = False

    def consider(program: FuzzProgram) -> Optional[dict]:
        nonlocal budget_exhausted
        if deadline is not None and time.monotonic() > deadline:
            budget_exhausted = True
        if budget_exhausted:
            return None
        digest = program_digest(program)
        if digest in known:
            tally["skipped_known"] += 1
            _count(telemetry, "fuzz.skipped_known")
            return None
        if digest in memo:
            return memo[digest]
        result = check_program(program, detector, mc, mc_budget)
        memo[digest] = result
        tally["racy" if program.racy else "race_free"] += 1
        _count(telemetry, "fuzz.examples")
        _count(telemetry, "fuzz.racy" if program.racy else "fuzz.race_free")
        if result is not None and result["kind"].endswith("-crash"):
            tally["crashes"] += 1
            _count(telemetry, "fuzz.crashes")
        return result

    def probe_round(round_index: int, budget: int) -> Optional[dict]:
        captured = {}

        @hypothesis_seed(seed * 0x9E3779B1 + round_index * 7919)
        @hypothesis_settings(
            max_examples=budget,
            deadline=None,
            database=None,
            suppress_health_check=list(HealthCheck),
            report_multiple_bugs=False,
            verbosity=Verbosity.quiet,
        )
        @given(programs())
        def probe(program: FuzzProgram) -> None:
            result = consider(program)
            if result is not None:
                # Hypothesis re-executes the minimal failing example
                # last, so after shrinking this holds the shrunk one.
                captured["last"] = (program, result)
                raise _Disagreement(result["kind"])

        try:
            probe()
        except _Disagreement:
            program, result = captured["last"]
            return {"program": program, **result}
        return None

    disagreements = []
    rounds = 0
    while not budget_exhausted:
        budget = count - len(memo)
        if budget <= 0:
            break
        rounds += 1
        _count(telemetry, "fuzz.rounds")
        found = probe_round(rounds, budget)
        if found is None:
            break  # budget spent in agreement
        _count(telemetry, "fuzz.disagreements")
        program = found.pop("program")
        known.add(found["digest"])
        record = dict(found)
        record["program"] = program.to_dict()
        record["shrunk_describe"] = program.describe()
        if corpus_dir is not None:
            entry = make_entry(
                program,
                kind=found["kind"],
                note=found["detail"],
                detector=detector,
                static=found["static"],
                dynamic=found["dynamic"],
                mc=found.get("mc"),
            )
            record["corpus_path"] = record_entry(entry, corpus_dir)
            _count(telemetry, "fuzz.corpus_new")
        disagreements.append(record)

    return {
        "schema": REPORT_SCHEMA,
        "count": count,
        "seed": seed,
        "detector": detector,
        "mc": bool(mc),
        "mc_budget": int(mc_budget) if mc else None,
        "examples": len(memo),
        "racy": tally["racy"],
        "race_free": tally["race_free"],
        "skipped_known": tally["skipped_known"],
        "crashes": tally["crashes"],
        "rounds": rounds,
        "budget_exhausted": budget_exhausted,
        "disagreements": disagreements,
        "corpus_dir": None if corpus_dir is None else str(corpus_dir),
        "elapsed_seconds": round(time.monotonic() - started, 3),
    }
