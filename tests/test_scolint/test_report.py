"""Reporters, the golden JSON fixture, and the ``lint`` CLI subcommand."""

from __future__ import annotations

import json
import os

import pytest

from repro.experiments.cli import main
from repro.scolint import (
    as_report,
    lint_target,
    render_json,
    render_text,
)
from repro.targets import parse_target

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_red.json")


def _red_results():
    return [
        lint_target(parse_target(spec))
        for spec in ("app:RED", "app:RED+block_fence", "app:RED+block_count")
    ]


def test_golden_red_report():
    """Regenerate with:

    PYTHONPATH=src python -m repro.experiments.cli lint \
        app:RED app:RED+block_fence app:RED+block_count \
        --json --out tests/test_scolint/golden_red.json
    """
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    fresh = json.loads(render_json(_red_results()))
    assert fresh == golden, (
        "lint report for RED drifted from the golden fixture — if the "
        "change is intentional, regenerate it (command in this test's "
        "docstring)"
    )


def test_text_report_shape():
    results = _red_results()
    text = render_text(results)
    assert "app:RED+block_fence" in text
    assert "[SL-F3 scoped-fence]" in text
    assert "fix:" in text
    assert "1 target(s) clean: app:RED" in text
    verbose = render_text(results, verbose=True)
    assert "app:RED: clean" in verbose


def test_json_report_shape():
    report = as_report(_red_results())
    assert report["schema"] == "scolint-report/v1"
    assert report["summary"]["targets"] == 3
    assert report["summary"]["clean"] == 1
    targets = {t["target"]: t for t in report["targets"]}
    assert targets["app:RED"]["clean"] is True
    rules = {
        f["rule"]
        for t in report["targets"]
        for f in t["findings"]
    }
    assert rules == {"SL-F3", "SL-A1"}


# ----------------------------------------------------------------------
# CLI subcommand
# ----------------------------------------------------------------------
class TestLintCli:
    def test_lint_single_micro_text(self, capsys):
        assert main(["lint", "micro:fence_missing_cross_block"]) == 0
        out = capsys.readouterr().out
        assert "SL-F1" in out
        assert "scolint: 1 target(s)" in out

    def test_lint_json_and_out_file(self, tmp_path, capsys):
        path = tmp_path / "lint.json"
        assert main([
            "lint", "micro:atomic_block_scope_cross_block",
            "--json", "--out", str(path),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "scolint-report/v1"
        assert json.loads(path.read_text()) == payload

    def test_lint_micros_group_is_clean_where_expected(self, capsys):
        assert main(["lint", "micros"]) == 0
        out = capsys.readouterr().out
        assert "scolint: 32 target(s)" in out
        assert "14 clean" in out

    def test_lint_unknown_target_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["lint", "nonsense"])
        assert "unknown target 'nonsense'" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [
        "app:RED+typo",              # unknown flag
        "app:NOPE",                  # unknown application
        "micro:no_such_micro",       # unknown micro
        "litmus:no_such_test",       # unknown litmus test
        "kernel:RED",                # unknown kind
    ])
    def test_lint_bad_target_is_a_usage_error(self, spec, capsys):
        # Checked before any target is linted: argparse exit 2, the
        # grammar in the message, no traceback.
        with pytest.raises(SystemExit) as exit_info:
            main(["lint", "micro:fence_missing_cross_block", spec])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert repr(spec) in captured.err
        assert "app:<NAME>[+flag...]" in captured.err
        assert "Traceback" not in captured.err

    def test_lint_multi_flag_app_target(self, capsys):
        assert main([
            "lint", "app:RED+block_fence+block_count", "--json",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        (target,) = report["targets"]
        assert target["target"] == "app:RED+block_count+block_fence"
        assert not target["clean"]

    def test_lint_metrics_out(self, tmp_path, capsys):
        path = tmp_path / "metrics.prom"
        assert main([
            "lint", "micro:lock_missing_on_store",
            "--metrics-out", str(path),
        ]) == 0
        body = path.read_text()
        assert "lint" in body
        sidecar = json.loads((tmp_path / "metrics.prom.json").read_text())
        assert sidecar  # non-empty metrics export

    def test_lint_app_flag_target(self, capsys):
        assert main(["lint", "app:UTS+block_exch_global"]) == 0
        out = capsys.readouterr().out
        assert "SL-A1" in out

    @pytest.mark.tier2
    def test_lint_suite_verdicts(self, capsys):
        assert main(["lint", "suite", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        summary = report["summary"]
        assert summary["targets"] == 65  # 32 micros + 7 apps + 26 flags
        assert summary["clean"] == 21   # 14 non-racey micros + 7 defaults
        dirty = {t["target"] for t in report["targets"] if not t["clean"]}
        assert "app:UTS+block_exch_global" in dirty

    @pytest.mark.tier2
    def test_lint_crossval_static_only(self, capsys):
        assert main(["lint", "--crossval", "--static-only"]) == 0
        out = capsys.readouterr().out
        assert "Lint cross-validation" in out
        assert "static false positives: 0" in out
