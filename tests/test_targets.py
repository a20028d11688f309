"""The suite-target catalog (repro.targets): grammar, groups, and the
CLIs that share it."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigError
from repro.targets import GROUPS, expand_targets, parse_target


def test_all_is_the_whole_catalog_with_round_tripping_labels():
    targets = expand_targets(["all"])
    labels = [target.label for target in targets]
    assert len(targets) == 77
    assert len(set(labels)) == 77
    assert sum(t.kind == "micro" for t in targets) == 32
    assert sum(t.kind == "app" and not t.flags for t in targets) == 7
    assert sum(t.kind == "app" and bool(t.flags) for t in targets) == 26
    assert sum(t.kind == "litmus" for t in targets) == 12
    for target in targets:
        assert parse_target(target.label) == target


def test_suite_is_the_65_lint_smoke_configurations():
    suite = expand_targets(["suite"])
    assert len(suite) == 65
    assert sum(1 for target in suite if not target.racy) == 21
    assert all(target.racy is not None for target in suite)
    assert [t.label for t in suite] == [
        t.label for t in expand_targets(["micros", "apps"])
    ]


def test_flags_are_validated_deduplicated_and_sorted():
    target = parse_target("app:red+block_fence+block_count+block_fence")
    assert target.label == "app:RED+block_count+block_fence"
    assert target.racy
    with pytest.raises(ConfigError, match="app:<NAME>"):
        parse_target("app:RED+typo")


@pytest.mark.parametrize("group", GROUPS)
def test_lint_and_mc_expand_groups_to_the_catalog_labels(
    group, monkeypatch
):
    import repro.mc.explorer as explorer
    import repro.scolint.suite as suite
    from repro.experiments.cli import main
    from repro.mc.cli import mc_main
    from repro.scolint.suite import LintResult

    linted, explored = [], []

    def fake_lint(target, gpu_config=None):
        linted.append(target.label)
        return LintResult(target.label, target.kind, [], 0, 0)

    def fake_explore(target, **_kwargs):
        explored.append(target.label)
        return {"target": target.label, "verdict": "budget_exhausted"}

    monkeypatch.setattr(suite, "lint_target", fake_lint)
    monkeypatch.setattr(explorer, "explore", fake_explore)
    assert main(["lint", group, "--json"]) == 0
    assert mc_main([group, "--quiet"]) == 0
    expected = [target.label for target in expand_targets([group])]
    assert linted == expected
    assert explored == expected
