"""Tier-2: forensic bundles agree with scolint on every injected race.

The cross-validation suite injects 44 known races (18 racey micros plus
26 application race flags).  This replays each one dynamically under a
full-capture flight recorder and asserts, per detected race, the full
forensic contract from :func:`repro.forensics.smoke.check_bundles`:

* one bundle per unique race, naming both racing accesses;
* the severed happens-before edge matches the catalog entry for the
  race type;
* the bundle's scolint rule equals ``RULE_FOR_TYPE`` — and, where the
  static pass also caught the race, the rule really appears among the
  lint findings for the same target.
"""

import pytest

from repro.forensics import bundles_for_gpu
from repro.forensics.smoke import check_bundles
from repro.mc.targets import resolve_target
from repro.scolint.model import RULE_FOR_TYPE
from repro.scolint.suite import lint_target
from repro.scord.races import RaceType
from repro.targets import expand_targets

pytestmark = pytest.mark.tier2

#: every suite target with a race injected by construction
CASES = [target for target in expand_targets(["suite"])
         if target.expected_types]


def test_suite_injects_exactly_44_races():
    assert len(CASES) == 44


@pytest.mark.parametrize(
    "case", CASES, ids=[case.label for case in CASES]
)
def test_bundles_agree_with_scolint(case):
    # The uncontrolled full-capture ScoRD run (mc's schedule #0).
    gpu = resolve_target(case.label).execute(None)
    failures = check_bundles(case.label, gpu, case.expected_types)
    assert failures == [], "\n".join(failures)

    bundles = bundles_for_gpu(gpu, source=case.label)
    lint_result = lint_target(case)
    static_rules = {finding.rule for finding in lint_result.findings}
    for bundle in bundles:
        race_type = RaceType(bundle["race"]["type"])
        assert bundle["hb"]["scolint_rule"] == RULE_FOR_TYPE[race_type]
        if race_type in lint_result.race_types:
            # scolint caught the same race statically — the bundle's
            # cross-referenced rule must be among its actual findings.
            assert bundle["hb"]["scolint_rule"] in static_rules
