"""Graceful drain: SIGTERM finishes in-flight work, store stays clean.

The real-signal tests boot the daemon as a subprocess (the exact
``scord-experiments serve`` entry point).  One submits a multi-unit
job, sends SIGTERM while units are in flight, and then proves two
things from the outside: the process exits cleanly, and the run store
parses with zero quarantined lines and one record per submitted unit.
The other proves ``--trace PATH`` writes its Chrome trace on drain.
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.experiments.store import RunStore
from repro.service import JobManager, ServiceConfig
from repro.service.schemas import JOB_SCHEMA, ServiceError

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
)


def _spawn_daemon(*flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.experiments.cli", "serve",
            "--port", "0", "--jobs", "1", "--dispatchers", "1",
            *flags,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    # The daemon announces its ephemeral address on the first line.
    line = proc.stderr.readline()
    assert "listening on http://" in line, line
    address = line.split("listening on ", 1)[1].split()[0]
    return proc, address


def test_sigterm_drains_inflight_jobs_and_keeps_the_store_clean(tmp_path):
    store_path = str(tmp_path / "store.jsonl")
    proc, address = _spawn_daemon("--store", store_path)
    try:
        body = {
            "schema": JOB_SCHEMA,
            "units": [{"app": "RED", "seed": s} for s in range(1, 5)],
        }
        req = urllib.request.Request(
            address + "/v1/jobs",
            data=json.dumps(body).encode(),
            headers={"X-Scord-Client": "drainer"},
            method="POST",
        )
        with urllib.request.urlopen(req) as resp:
            assert resp.status == 202
            job = json.loads(resp.read())
        assert job["units_total"] == 4
        # SIGTERM while the single worker is still chewing the shard.
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=120)
        assert proc.returncode == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
    # In-flight units all finished and were durably recorded...
    store = RunStore(store_path)
    loaded = store.load()
    assert len(loaded) == 4
    # ...and nothing was torn mid-write.
    assert store.quarantined == 0


def test_trace_without_store_is_written_on_drain(tmp_path):
    trace_path = tmp_path / "service-trace.json"
    proc, address = _spawn_daemon("--trace", str(trace_path))
    try:
        with urllib.request.urlopen(address + "/healthz") as resp:
            assert resp.status == 200
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=60)
        assert proc.returncode == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
    trace = json.loads(trace_path.read_text())
    names = {event.get("name") for event in trace["traceEvents"]}
    assert "service.request" in names
    assert (tmp_path / "service-trace.jsonl").exists()


def test_manager_drain_refuses_new_work_and_finishes_old(tmp_path):
    manager = JobManager(
        ServiceConfig(
            workers=1,
            dispatchers=1,
            store_path=str(tmp_path / "store.jsonl"),
        )
    )
    try:
        job = manager.submit(
            "alice",
            {"schema": JOB_SCHEMA, "units": [{"app": "RED"}]},
        )
        assert manager.drain(timeout=120) is True
        assert job.state == "done"
        assert job.units_done == 1
        with pytest.raises(ServiceError) as err:
            manager.submit(
                "alice",
                {"schema": JOB_SCHEMA, "units": [{"app": "RED"}]},
            )
        assert err.value.code == "draining"
        assert err.value.status == 503
    finally:
        manager.close()
    store = RunStore(str(tmp_path / "store.jsonl"))
    assert len(store.load()) == 1
    assert store.quarantined == 0


def test_drain_with_zero_pending_work_returns_immediately():
    manager = JobManager(ServiceConfig(workers=1, dispatchers=1))
    started = time.monotonic()
    assert manager.drain(timeout=30) is True
    assert time.monotonic() - started < 20
