"""End-to-end CLI wiring: ``scord-experiments mc`` and ``explain`` on
mc reports."""

from __future__ import annotations

import json

import pytest

import repro.experiments.cli as experiments_cli
from repro.forensics.explain import explain_main
from repro.mc.cli import checkpoint_path, mc_main

RACY = "micro:fence_missing_cross_block"
CLEAN = "micro:fence_device_cross_block"


def test_mc_main_writes_reports_and_metrics(tmp_path, capsys):
    json_out = tmp_path / "mc.json"
    metrics_out = tmp_path / "mc.prom"
    rc = mc_main([
        RACY, CLEAN, "--check",
        "--json-out", str(json_out),
        "--metrics-out", str(metrics_out),
    ])
    assert rc == 0
    reports = json.loads(json_out.read_text())
    assert [r["target"] for r in reports] == [RACY, CLEAN]
    assert [r["verdict"] for r in reports] == [
        "proven_racy", "proven_race_free"
    ]
    assert metrics_out.exists()
    with open(str(metrics_out) + ".json") as handle:
        metrics = json.load(handle)
    values = metrics.get("metrics", metrics)
    assert values["mc.targets"] == 2
    out = capsys.readouterr().out
    assert "proven_racy" in out and "proven_race_free" in out


def test_mc_main_check_fails_on_unproven_race(tmp_path):
    # Under the no-op detector the injected race can never be proven:
    # --check must fail.
    rc = mc_main([RACY, "--detector", "none", "--budget", "2", "--quiet"])
    assert rc == 0  # without --check the exploration itself is fine
    rc = mc_main([
        RACY, "--detector", "none", "--budget", "2", "--quiet", "--check",
    ])
    assert rc == 1


def test_mc_main_store_and_resume(tmp_path):
    store = tmp_path / "store"
    argv = [CLEAN, "--store", str(store), "--quiet"]
    assert mc_main(argv) == 0
    assert (store / "micro_fence_device_cross_block.mc.json").exists()
    assert mc_main(argv + ["--resume"]) == 0


def test_checkpoint_path_sanitizes_labels(tmp_path):
    path = checkpoint_path(str(tmp_path), "app:UTS+block_exch_global")
    assert path.endswith("app_UTS_block_exch_global.mc.json")


@pytest.mark.parametrize("argv", [
    ["micro:no_such_micro"],
    [RACY, "--resume"],               # --resume needs --store
    [RACY, "--budget", "0"],
    [RACY, "--detector", "bogus"],
    [RACY, "app:RED+typo"],           # checked before any exploration
    ["app:RED+block_fence+typo"],
    ["litmus:no_such_test"],
    ["kernel:RED"],
])
def test_mc_main_rejects_bad_usage(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        mc_main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("spec", [
    "nonsense", "app:RED+typo", "app:NOPE", "micro:no_such_micro",
])
def test_bad_target_message_is_shared_by_lint_mc_and_explain(
    spec, capsys
):
    from repro.common.errors import ConfigError
    from repro.targets import parse_target

    with pytest.raises(ConfigError) as parse_error:
        parse_target(spec)
    message = str(parse_error.value)
    with pytest.raises(SystemExit):
        experiments_cli.main(["lint", spec])
    assert f"scord-experiments lint: error: {message}\n" in (
        capsys.readouterr().err
    )
    with pytest.raises(SystemExit):
        mc_main([spec])
    assert f"scord-experiments mc: error: {message}\n" in (
        capsys.readouterr().err
    )
    assert explain_main([spec]) == 1
    captured = capsys.readouterr()
    assert captured.out == f"[explain-error] {message}\n"
    assert "Traceback" not in captured.err


def test_mc_main_expands_group_specs(tmp_path):
    json_out = tmp_path / "mc.json"
    rc = mc_main([
        "litmus:mp_device_fence", "--budget", "4", "--quiet",
        "--json-out", str(json_out),
    ])
    assert rc == 0
    (report,) = json.loads(json_out.read_text())
    assert report["target"] == "litmus:mp_device_fence"
    assert report["outcomes"], "litmus targets must collect outcomes"


# ----------------------------------------------------------------------
# explain on mc reports
# ----------------------------------------------------------------------
def test_explain_replays_an_mc_witness(tmp_path, capsys):
    json_out = tmp_path / "mc.json"
    assert mc_main([RACY, "--quiet", "--json-out", str(json_out)]) == 0
    rc = explain_main([str(json_out), "--no-trace"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mc-witness:" + RACY in out
    assert "missing-device-fence" in out or "device-fence" in out


def test_explain_accepts_a_multi_flag_app_target(capsys):
    assert explain_main(["app:RED+block_fence+block_count", "--no-trace"]) == 0
    out = capsys.readouterr().out
    header = out.splitlines()[0]
    assert header.startswith("--- app:RED+block_fence+block_count: ")
    assert int(header.split(": ")[1].split()[0]) >= 1


def test_explain_accepts_a_litmus_target(capsys):
    assert explain_main(["litmus:mp_device_fence"]) == 0
    assert "no races detected" in capsys.readouterr().out


def test_explain_rejects_a_bad_mc_report(tmp_path, capsys):
    path = tmp_path / "mc.json"
    path.write_text(json.dumps({
        "schema": "mc-report/v1",
        "target": "micro:no_such_micro",
        "witness": None,
    }))
    rc = explain_main([str(path), "--no-trace"])
    assert rc == 1
    assert "explain-error" in capsys.readouterr().out
