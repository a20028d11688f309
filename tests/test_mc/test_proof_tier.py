"""The proof tier (``pytest -m mc``): every suite verdict, proven.

The cross-validation suite's ground truth — 44 injected-race
configurations (18 racy micros + 26 app race flags) and 21 race-free
configurations (14 clean micros + 7 app defaults) — is upgraded from
"detected / not detected on the schedules we happened to run" to
*proven* verdicts:

* every injected race must be ``proven_racy`` with a replayable
  witness under the ScoRD judge at the default input seed, Table VI's
  input;
* no race-free configuration may ever produce a witness (zero false
  positives).  Race-free *micros* additionally drain their frontier to
  ``proven_race_free`` with a prune ratio > 1; race-free *apps* have
  hundreds of thousands of choice points, so their bounded exploration
  is an abstention (``budget_exhausted``) — still witness-free;
* every witness is cross-checked against the static rule catalog
  (scolint ``RULE_FOR_TYPE``) and the forensics HB-edge catalog
  (``EDGE_FOR_TYPE``), and micro witnesses replay into forensic
  bundles whose severed edge agrees with the static rule.
"""

from __future__ import annotations

import pytest

from repro.forensics import bundles_for_gpu
from repro.forensics.hb import EDGE_FOR_TYPE
from repro.mc import explore, replay_witness, resolve_target
from repro.scolint import RULE_FOR_TYPE
from repro.scor.apps.registry import ALL_APPS
from repro.scor.micro.registry import ALL_MICROS
from repro.scord.races import RaceType

pytestmark = pytest.mark.mc

RACY_MICROS = sorted(m.name for m in ALL_MICROS if m.racey)
CLEAN_MICROS = sorted(m.name for m in ALL_MICROS if not m.racey)
RACY_APPS = sorted(
    (cls.name, flag.name) for cls in ALL_APPS for flag in cls.RACE_FLAGS
)
CLEAN_APPS = sorted(cls.name for cls in ALL_APPS)

#: schedules per racy config — the fair schedule is expected to carry
#: the witness; the margin covers probes plus a few DPOR reversals
RACY_BUDGET = 16
#: race-free micros must drain their frontier within this
CLEAN_MICRO_BUDGET = 256
#: race-free apps: bounded no-false-positive sweep (fair + one probe)
CLEAN_APP_BUDGET = 2


def test_suite_ground_truth_shape():
    """The acceptance-criteria denominators, pinned."""
    assert len(RACY_MICROS) + len(RACY_APPS) == 44
    assert len(CLEAN_MICROS) + len(CLEAN_APPS) == 21


def _check_witness_types(report):
    """Every proven race type has a static rule and an HB edge."""
    assert report["race_types"], "proven_racy without race types"
    for value in report["race_types"]:
        race_type = RaceType(value)
        assert race_type in RULE_FOR_TYPE
        assert race_type in EDGE_FOR_TYPE
    witness = report["witness"]
    assert witness is not None
    assert witness["race_types"]


@pytest.mark.parametrize("name", RACY_MICROS)
def test_racy_micro_is_proven_racy(name):
    target = resolve_target(f"micro:{name}")
    report = explore(target, budget=RACY_BUDGET)
    assert report["verdict"] == "proven_racy", report
    _check_witness_types(report)
    expected = set(report["race_types"]) & set(target.expected_types)
    assert expected, (
        f"{name}: witnessed {report['race_types']}, none within the "
        f"injected classes"
    )
    # The witness replays into a forensic bundle whose severed HB edge
    # agrees with the static rule for the race class.
    gpu = replay_witness(target, report["witness"])
    bundles = bundles_for_gpu(gpu, source=f"mc-proof:{name}")
    assert bundles
    for bundle in bundles:
        race_type = RaceType(bundle["race"]["type"])
        assert bundle["hb"]["scolint_rule"] == RULE_FOR_TYPE[race_type]
        assert bundle["hb"]["edge"] == EDGE_FOR_TYPE[race_type].name


@pytest.mark.parametrize("name", CLEAN_MICROS)
def test_clean_micro_is_proven_race_free(name):
    report = explore(
        resolve_target(f"micro:{name}"), budget=CLEAN_MICRO_BUDGET
    )
    assert not report["racy"], (
        f"{name}: FALSE POSITIVE — witness {report['witness']}"
    )
    assert report["verdict"] == "proven_race_free", report
    assert report["prune_ratio"] > 1, (
        f"{name}: DPOR pruned nothing "
        f"({report['schedules_explored']} explored of "
        f"{report['naive_schedules']} naive)"
    )


@pytest.mark.parametrize(("app", "flag"), RACY_APPS)
def test_racy_app_config_is_proven_racy(app, flag):
    target = resolve_target(f"app:{app}+{flag}")
    report = explore(target, budget=RACY_BUDGET)
    assert report["verdict"] == "proven_racy", (app, flag, report)
    assert report["detector"] == "scord"
    _check_witness_types(report)


@pytest.mark.parametrize("app", CLEAN_APPS)
def test_clean_app_default_has_no_witness(app):
    report = explore(
        resolve_target(f"app:{app}"), budget=CLEAN_APP_BUDGET
    )
    assert not report["racy"], (
        f"{app}: FALSE POSITIVE — witness {report['witness']}"
    )
    assert report["race_types"] == []
