"""Differential kernel fuzzing with known-by-construction ground truth.

The suite's two oracles — scolint (static) and ScoRD (dynamic) — are
otherwise only ever graded against hand-written programs.  This package
synthesizes random scoped kernel-DSL programs whose race verdict is
known *by construction* (docs/fuzzing.md makes the argument), runs both
oracles over each, and turns every disagreement into a minimal,
replayable regression program:

* :mod:`repro.fuzz.program` — the serializable program IR, its ground
  truth, canonical-JSON content addressing, and compilation to a kernel
  generator;
* :mod:`repro.fuzz.strategies` — hypothesis strategies over the IR (the
  single program-synthesis source of truth, shared with the property
  tests);
* :mod:`repro.fuzz.oracles` — uniform verdict extraction from scolint,
  from one dynamic ScoRD run on the native schedule, and from bounded
  ``mc`` schedule enumeration;
* :mod:`repro.fuzz.differential` — the fuzz campaign: generate, check,
  shrink disagreements with hypothesis, persist them;
* :mod:`repro.fuzz.corpus` — the replayable corpus under
  ``tests/corpus/fuzz/`` that auto-loads as regression micros.

Entry point: ``scord-experiments fuzz`` (see :mod:`repro.fuzz.cli`).
"""

from repro.fuzz.corpus import (
    load_corpus,
    make_entry,
    record_entry,
    replay_entry,
)
from repro.fuzz.differential import check_program, fuzz_campaign
from repro.fuzz.oracles import dynamic_verdict, static_verdict
from repro.fuzz.program import (
    Actor,
    Bug,
    FuzzProgram,
    Phase,
    PhaseKind,
    compile_fused,
    compile_phase,
    fuzz_unit_digest,
    program_digest,
    run_program,
)

__all__ = [
    "Actor",
    "Bug",
    "FuzzProgram",
    "Phase",
    "PhaseKind",
    "check_program",
    "compile_fused",
    "compile_phase",
    "dynamic_verdict",
    "fuzz_campaign",
    "fuzz_unit_digest",
    "load_corpus",
    "make_entry",
    "program_digest",
    "record_entry",
    "replay_entry",
    "run_program",
    "static_verdict",
]
