"""The mc oracle in the differential harness: the third opinion.

Tier-1 pins the verdict shape on known programs and exercises every
``mc-*`` disagreement path by monkeypatching the oracle to lie (the
honest oracle agrees with construction across the grammar, so lies are
the only way to reach those branches) — including the full campaign
loop: the lie must be found, shrunk, persisted with its mc verdict,
masked, and flagged by corpus replay against the honest oracle.  A
pool worker cannot see a monkeypatch, so the lying tests also patch
``differential.mc_pool`` to return None: on that in-process floor
``check_program`` calls ``differential.safe_mc_verdict`` itself.

The ``mc``-marked tier at the bottom runs the honest three-way
comparison at scale.
"""

from __future__ import annotations

import pytest

from hypothesis import given, settings

import repro.fuzz.differential as differential
from repro.fuzz import (
    Actor,
    Bug,
    FuzzProgram,
    Phase,
    PhaseKind,
    check_program,
    fuzz_campaign,
    load_corpus,
    replay_entry,
)
from repro.fuzz.oracles import DEFAULT_MC_BUDGET, mc_verdict, safe_mc_verdict
from repro.fuzz.strategies import programs

CLEAN = FuzzProgram(2, 2, (
    Phase(PhaseKind.HANDOFF, Actor(0, 0), Actor(1, 0)),
))
RACY = FuzzProgram(2, 2, (
    Phase(PhaseKind.MUTEX, Actor(0, 0), Actor(1, 0), Bug.SKIP_SYNC),
))


def _lie(monkeypatch, oracle):
    """Make *oracle* the mc oracle, run in this interpreter."""
    monkeypatch.setattr(differential, "mc_pool", lambda: None)
    monkeypatch.setattr(differential, "safe_mc_verdict", oracle)


# ----------------------------------------------------------------------
# The honest oracle
# ----------------------------------------------------------------------
def test_mc_verdict_on_known_programs():
    clean = mc_verdict(CLEAN)
    assert clean["verdict"] == "proven_race_free"
    assert not clean["racy"]
    assert clean["types"] == []
    assert clean["prune_ratio"] >= 1

    racy = mc_verdict(RACY)
    assert racy["verdict"] == "proven_racy"
    assert racy["racy"]
    expected = {t.value for t in RACY.expected_types()}
    assert set(racy["types"]) <= expected
    assert racy["budget"] == DEFAULT_MC_BUDGET


def test_mc_verdict_is_deterministic():
    assert mc_verdict(RACY) == mc_verdict(RACY)


def test_safe_mc_verdict_folds_crashes():
    verdicts = safe_mc_verdict(CLEAN)
    assert "error" not in verdicts
    broken = FuzzProgram(2, 2, (
        Phase(PhaseKind.HANDOFF, Actor(0, 0), Actor(1, 0)),
    ))
    # A budget below 1 is a contract violation the safe wrapper folds
    # into an error verdict instead of propagating.
    result = safe_mc_verdict(broken, budget=0)
    assert "error" in result


def test_three_way_agreement_on_known_programs():
    assert check_program(CLEAN, mc=True) is None
    assert check_program(RACY, mc=True) is None


# ----------------------------------------------------------------------
# Disagreement classification (lying oracle)
# ----------------------------------------------------------------------
def _verdict(racy, verdict, types):
    return {
        "racy": racy, "types": types, "verdict": verdict,
        "schedules_explored": 1, "schedules_pruned": 0,
        "prune_ratio": 1.0, "errors": 0,
        "budget": DEFAULT_MC_BUDGET, "detector": "scord",
    }


def test_mc_false_positive_is_classified(monkeypatch):
    _lie(
        monkeypatch,
        lambda *a, **k: _verdict(True, "proven_racy", ["lock"]),
    )
    result = check_program(CLEAN, mc=True)
    assert result["kind"] == "mc-false-positive"
    assert result["mc"]["racy"]


def test_mc_proven_race_free_on_racy_code_is_a_miss(monkeypatch):
    _lie(
        monkeypatch,
        lambda *a, **k: _verdict(False, "proven_race_free", []),
    )
    result = check_program(RACY, mc=True)
    assert result["kind"] == "mc-miss"


def test_budget_exhausted_is_an_abstention_not_a_miss(monkeypatch):
    _lie(
        monkeypatch,
        lambda *a, **k: _verdict(False, "budget_exhausted", []),
    )
    assert check_program(RACY, mc=True) is None


def test_mc_unexpected_type_is_classified(monkeypatch):
    _lie(
        monkeypatch,
        lambda *a, **k: _verdict(
            True, "proven_racy", ["not-a-real-type"]
        ),
    )
    result = check_program(RACY, mc=True)
    assert result["kind"] == "mc-unexpected-type"


def test_mc_crash_is_classified(monkeypatch):
    _lie(
        monkeypatch,
        lambda *a, **k: {"error": "SimulationError: boom",
                         "racy": None, "types": []},
    )
    result = check_program(RACY, mc=True)
    assert result["kind"] == "mc-crash"
    assert "boom" in result["detail"]


def test_mc_oracle_is_not_consulted_when_disabled(monkeypatch):
    def explode(*a, **k):
        raise AssertionError("mc oracle called with mc=False")

    monkeypatch.setattr(differential, "safe_mc_verdict", explode)
    assert check_program(CLEAN) is None


# ----------------------------------------------------------------------
# The campaign loop with a lying mc oracle
# ----------------------------------------------------------------------
def _lying_mc(program, budget=DEFAULT_MC_BUDGET, detector="scord"):
    # False-positive on any program containing a DISJOINT phase —
    # minimal trigger: a single-phase disjoint program.
    if any(p.kind is PhaseKind.DISJOINT for p in program.phases):
        return _verdict(True, "proven_racy", ["lock"])
    return safe_mc_verdict(program, budget, detector)


def test_campaign_shrinks_persists_and_masks_an_mc_lie(
    tmp_path, monkeypatch
):
    _lie(monkeypatch, _lying_mc)
    corpus = tmp_path / "corpus"
    report = fuzz_campaign(count=40, seed=0, corpus_dir=corpus, mc=True)
    assert report["mc"] is True
    assert report["mc_budget"] == DEFAULT_MC_BUDGET
    kinds = [d["kind"] for d in report["disagreements"]]
    assert "mc-false-positive" in kinds
    found = report["disagreements"][0]
    shrunk = FuzzProgram.from_dict(found["program"])
    assert len(shrunk.phases) == 1
    assert shrunk.phases[0].kind is PhaseKind.DISJOINT

    # The corpus entry records the lying mc verdict...
    entry = next(
        e for _, e in load_corpus(corpus)
        if e["digest"] == found["digest"]
    )
    assert entry["mc"]["racy"] is True

    # ...which the honest oracle flags as drift on replay.
    problems = replay_entry(entry)
    assert any("mc" in problem for problem in problems)

    # Re-running masks the now-known entry.
    _lie(monkeypatch, _lying_mc)
    rerun = fuzz_campaign(count=40, seed=0, corpus_dir=corpus, mc=True)
    assert found["digest"] not in {
        d["digest"] for d in rerun["disagreements"]
    }
    assert rerun["skipped_known"] >= 1


def test_mc_free_campaign_report_is_unchanged(tmp_path):
    """Without --mc the report and corpus schema stay pre-PR-9
    byte-compatible: no ``mc`` keys anywhere."""
    report = fuzz_campaign(count=5, seed=0, corpus_dir=tmp_path / "c")
    assert report["mc"] is False
    assert report["mc_budget"] is None
    for record in report["disagreements"]:
        assert "mc" not in record


# ----------------------------------------------------------------------
# The three-way tier (pytest -m mc)
# ----------------------------------------------------------------------
@pytest.mark.mc
@given(program=programs())
@settings(max_examples=100, deadline=None)
def test_three_way_oracles_agree_with_construction(program):
    result = check_program(program, mc=True)
    assert result is None, (
        f"{program.describe()}: [{result['kind']}] {result['detail']}"
    )


@pytest.mark.mc
def test_three_way_campaign_finds_no_disagreements():
    report = fuzz_campaign(count=100, seed=0, mc=True)
    assert report["crashes"] == 0
    assert report["disagreements"] == [], report["disagreements"]
    assert report["examples"] > 50


@pytest.mark.mc
def test_corpus_anchors_replay_green_with_mc():
    """The committed corpus anchors, re-judged by the mc oracle: every
    racy anchor proven racy, every race-free anchor never witnessed."""
    import os

    corpus_dir = os.path.join(
        os.path.dirname(__file__), os.pardir, "corpus", "fuzz"
    )
    entries = load_corpus(corpus_dir)
    assert entries
    for path, entry in entries:
        program = FuzzProgram.from_dict(entry["program"])
        verdict = mc_verdict(program)
        truth = entry["ground_truth"]["racy"]
        if truth:
            assert verdict["racy"], (path, verdict)
            expected = set(entry["ground_truth"]["expected_types"])
            assert set(verdict["types"]) <= expected, (path, verdict)
        else:
            assert not verdict["racy"], (path, verdict)
