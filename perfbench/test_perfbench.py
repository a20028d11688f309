"""The benchmark's own tests (not part of tier 1).

    PYTHONPATH=src python -m pytest perfbench -q

A smoke-size run of each workload must print every metric named in
BENCHMARK.json with its unit; a deliberately wrong expectation must fail
the run's checks; and the command must refuse to run without the
program's sources.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

from perfbench import apps, fuzzmc, serve
from perfbench.harness import ROOT
from perfbench.layers import PER_LAYER
from perfbench.tracer import Tracer

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCH = json.load(_handle)


def _run(workload, trace, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return done


def test_per_layer_table_matches_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == [
        (name, unit) for name, unit, _ in PER_LAYER]


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    table = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {name: entry["unit"] for name, entry
            in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in table}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
        assert math.isfinite(entry["value"]) and entry["value"] >= 0
        # end-to-end metrics are never 0; a layer a workload does not
        # exercise reads 0
        assert trace or entry["value"] > 0
    assert any(line.startswith("# digest ")
               for line in done.stdout.splitlines())


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("apps", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_a_flipped_race_type_fails_the_apps_check():
    from repro.scord.races import RaceType

    state = {"units": [("RED", "base", ("block_fence",), 1),
                       ("RED", "none", (), 1)]}
    state["expected"] = apps.expected_types(state["units"])
    obs = apps.measure(state, 0)
    assert apps.check(state, obs) == []
    (key, types), = state["expected"].items()
    wrong = {key: frozenset(RaceType) - types}
    assert apps.check(state, obs, expected=wrong)


def test_a_flipped_program_verdict_fails_the_fuzz_check():
    programs = fuzzmc.draw_programs(5, 20)[:6]
    verdicts = fuzzmc.oracle_verdicts(programs)
    truth = [p.racy for p in programs]
    assert fuzzmc.verdict_errors(programs, verdicts, truth) == []
    truth[0] = not truth[0]
    assert fuzzmc.verdict_errors(programs, verdicts, truth)


def test_a_wrong_answer_fails_the_serve_check():
    state = serve.setup(4)
    try:
        obs = serve.measure(state, 1)
    finally:
        serve.close(state)
    assert serve.check(state, obs) == []
    program = next(job for job, _ in serve._pairs(state, obs)
                   if job["kind"] == "program")
    program["racy"] = not program["racy"]
    assert serve.check(state, obs)
    program["racy"] = not program["racy"]
    key, (record, launches) = next(iter(state["references"].items()))
    state["references"][key] = (dict(record, cycles=record["cycles"] + 1),
                                 launches)
    assert serve.check(state, obs)


def test_self_time_excludes_wrapped_children():
    tracer = Tracer()

    def leaf():
        time.sleep(0.02)

    def parent():
        tracer.fold("leaf", leaf)
        time.sleep(0.01)

    with tracer.span("unit"):
        tracer.fold("parent", parent)
    totals = tracer.layer_totals()
    assert totals["leaf"][0] == 1 and totals["parent"][0] == 1
    assert totals["parent"][1] >= totals["leaf"][1] >= 0.02
    assert 0.01 <= totals["parent"][2] < totals["leaf"][1]
    (span,) = tracer.spans
    assert span["self_s"] < 0.005
    assert set(span["layers"]) == {"leaf", "parent"}
