"""Endpoint contract tests over a real in-process server.

One daemon serves the whole module (module-scoped fixture) — the suite
drives it exactly as a client would, over sockets, and asserts the
documented contracts of docs/service.md: submit -> poll -> report,
cache-hit dedup across two clients, quota-exceeded 429, preflight-lint
rejection 422, malformed-JSON 400, plus the operational endpoints.
"""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.fuzz import Actor, Bug, FuzzProgram, Phase, PhaseKind
from repro.service import ServiceConfig, ServiceDaemon
from repro.service.schemas import JOB_SCHEMA, REPORT_SCHEMA
from repro.telemetry import validate_prometheus

RACY_PROGRAM = FuzzProgram(2, 2, (
    Phase(PhaseKind.HANDOFF, Actor(0, 0), Actor(1, 0), Bug.NO_FENCE),
))
CLEAN_PROGRAM = FuzzProgram(2, 2, (
    Phase(PhaseKind.HANDOFF, Actor(0, 0), Actor(1, 0)),
))

#: the two-unit micro-campaign both clients submit (cache-dedup demo)
MICRO_CAMPAIGN = {
    "schema": JOB_SCHEMA,
    "units": [
        {"app": "RED", "detector": "scord"},
        {"app": "RED", "detector": "none"},
    ],
}


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("service")
    config = ServiceConfig(
        port=0,  # ephemeral
        workers=1,
        dispatchers=2,
        store_path=str(tmp / "store.jsonl"),
        cache_dir=str(tmp / "cache"),
        quota_units=8,
        quota_refill_per_s=100.0,
    )
    daemon = ServiceDaemon(config).start()
    yield daemon
    daemon.close()


def request(daemon, method, path, body=None, client=None):
    """(status, parsed-JSON, headers) — HTTPError folded into status."""
    headers = {}
    if client:
        headers["X-Scord-Client"] = client
    data = None
    if body is not None:
        data = body if isinstance(body, bytes) else json.dumps(body).encode()
    req = urllib.request.Request(
        daemon.address + path, data=data, headers=headers, method=method
    )
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read()), dict(err.headers)


def wait_terminal(daemon, job_id, timeout=120):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, doc, _ = request(daemon, "GET", f"/v1/jobs/{job_id}")
        assert status == 200
        if doc["state"] in ("done", "failed"):
            return doc
        time.sleep(0.1)
    raise AssertionError(f"job {job_id} did not finish in {timeout}s")


class TestJobLifecycle:
    def test_submit_poll_report(self, daemon):
        status, doc, _ = request(
            daemon, "POST", "/v1/jobs", MICRO_CAMPAIGN, client="alice"
        )
        assert status == 202
        assert doc["schema"] == JOB_SCHEMA
        assert doc["state"] in ("queued", "running")
        assert doc["units_total"] == 2
        final = wait_terminal(daemon, doc["id"])
        assert final["state"] == "done"
        assert final["units_done"] == 2
        assert final["failed"] == 0
        status, report, _ = request(
            daemon, "GET", f"/v1/jobs/{doc['id']}/report"
        )
        assert status == 200
        assert report["schema"] == REPORT_SCHEMA
        assert report["job"]["id"] == doc["id"]
        assert len(report["units"]) == 2
        for unit in report["units"]:
            assert unit["failure"] is None
            assert unit["record"]["app"] == "RED"
            assert unit["source"] in ("executed", "cache", "coalesced")
        assert report["failures"] == []
        assert report["pool"]["workers"] >= 1

    def test_second_client_is_all_cache_hits(self, daemon):
        # ensure the campaign has been fully materialized once
        status, first, _ = request(
            daemon, "POST", "/v1/jobs", MICRO_CAMPAIGN, client="alice"
        )
        assert status == 202
        wait_terminal(daemon, first["id"])
        status, doc, _ = request(
            daemon, "POST", "/v1/jobs", MICRO_CAMPAIGN, client="bob"
        )
        assert status == 202
        final = wait_terminal(daemon, doc["id"])
        assert final["state"] == "done"
        assert final["cache_hits"] == final["units_total"] == 2
        assert final["executed"] == 0
        status, report, _ = request(
            daemon, "GET", f"/v1/jobs/{doc['id']}/report"
        )
        assert {u["source"] for u in report["units"]} <= {
            "cache", "coalesced"
        }

    def test_service_records_match_offline_records(self, daemon):
        from repro.experiments.campaign import RunSpec
        from repro.experiments.runner import Runner
        from repro.experiments.store import semantic_record_dict
        from repro.scor.apps.registry import app_by_name

        status, doc, _ = request(
            daemon, "POST", "/v1/jobs", MICRO_CAMPAIGN, client="alice"
        )
        wait_terminal(daemon, doc["id"])
        _, report, _ = request(daemon, "GET", f"/v1/jobs/{doc['id']}/report")
        offline = Runner(verbose=False)
        for unit in report["units"]:
            spec = RunSpec.from_dict(unit["spec"])
            record = offline.run(
                app_by_name(spec.app), spec.detector, spec.memory,
                spec.races, spec.seed,
            )
            served = dict(unit["record"])
            served.pop("wall_seconds", None)
            assert served == semantic_record_dict(record)

    def test_streamed_report_is_ndjson(self, daemon):
        status, doc, _ = request(
            daemon, "POST", "/v1/jobs", MICRO_CAMPAIGN, client="alice"
        )
        wait_terminal(daemon, doc["id"])
        with urllib.request.urlopen(
            daemon.address + f"/v1/jobs/{doc['id']}/report?stream=1"
        ) as resp:
            assert resp.headers["Content-Type"] == "application/x-ndjson"
            lines = [json.loads(l) for l in resp.read().splitlines()]
        assert lines[0]["schema"] == JOB_SCHEMA  # status line first
        assert len(lines) == 2 + doc["units_total"]
        assert lines[-1]["done"] is True
        assert {u["unit"] for u in lines[1:-1]} == {
            u["unit"] for u in lines[1:-1]
        }


class TestRefusals:
    def test_quota_exceeded_is_429_with_retry_after(self, daemon):
        body = {
            "schema": JOB_SCHEMA,
            "units": [{"app": "RED", "seed": s} for s in range(1, 10)],
        }
        status, doc, headers = request(
            daemon, "POST", "/v1/jobs", body, client="greedy"
        )
        assert status == 429
        assert doc["error"]["code"] == "quota-exceeded"
        assert doc["error"]["retry_after_seconds"] > 0
        assert int(headers["Retry-After"]) >= 1

    def test_statically_racy_program_is_rejected_with_the_rules(
        self, daemon
    ):
        body = {
            "schema": JOB_SCHEMA,
            "program": RACY_PROGRAM.to_dict(),
        }
        status, doc, _ = request(
            daemon, "POST", "/v1/jobs", body, client="alice"
        )
        assert status == 422
        assert doc["error"]["code"] == "static-race"
        static = doc["error"]["static"]
        assert static["racy"] is True
        assert static["rules"]  # scolint rule IDs, e.g. SL-F1
        assert static["types"] == ["missing-device-fence"]

    def test_opting_in_runs_the_racy_program_anyway(self, daemon):
        body = {
            "schema": JOB_SCHEMA,
            "program": RACY_PROGRAM.to_dict(),
            "on_static_race": "accept",
        }
        status, doc, _ = request(
            daemon, "POST", "/v1/jobs", body, client="alice"
        )
        assert status == 202
        assert doc["static"]["racy"] is True
        final = wait_terminal(daemon, doc["id"])
        assert final["state"] == "done"
        _, report, _ = request(daemon, "GET", f"/v1/jobs/{doc['id']}/report")
        assert report["dynamic"]["racy"] is True

    def test_clean_program_passes_preflight(self, daemon):
        body = {
            "schema": JOB_SCHEMA,
            "program": CLEAN_PROGRAM.to_dict(),
        }
        status, doc, _ = request(
            daemon, "POST", "/v1/jobs", body, client="alice"
        )
        assert status == 202
        assert doc["static"]["racy"] is False
        final = wait_terminal(daemon, doc["id"])
        _, report, _ = request(daemon, "GET", f"/v1/jobs/{doc['id']}/report")
        assert report["dynamic"]["racy"] is False
        assert len(report["units"]) == 1

    def test_a_program_body_with_seeds_is_400(self, daemon):
        body = {
            "schema": JOB_SCHEMA,
            "program": CLEAN_PROGRAM.to_dict(),
            "seeds": [0],
        }
        status, doc, _ = request(
            daemon, "POST", "/v1/jobs", body, client="alice"
        )
        assert status == 400
        assert doc["error"]["code"] == "bad-request"
        assert "seeds" in doc["error"]["message"]

    def test_malformed_json_is_400(self, daemon):
        status, doc, _ = request(
            daemon, "POST", "/v1/jobs", b"{not json", client="alice"
        )
        assert status == 400
        assert doc["error"]["code"] == "malformed-json"

    def test_unknown_job_is_404(self, daemon):
        status, doc, _ = request(daemon, "GET", "/v1/jobs/doesnotexist")
        assert status == 404
        assert doc["error"]["code"] == "unknown-job"

    def test_unknown_route_is_404(self, daemon):
        status, doc, _ = request(daemon, "GET", "/v2/nope")
        assert status == 404
        assert doc["error"]["code"] == "not-found"

    def test_wrong_method_is_405(self, daemon):
        status, doc, _ = request(daemon, "GET", "/v1/jobs")
        assert status == 405
        assert doc["error"]["code"] == "method-not-allowed"
        status, doc, _ = request(daemon, "POST", "/healthz", body={})
        assert status == 405


class TestOperationalEndpoints:
    def test_healthz_reports_serving_state(self, daemon):
        status, doc, _ = request(daemon, "GET", "/healthz")
        assert status == 200
        assert doc["ok"] is True
        assert doc["state"] == "serving"
        assert doc["draining"] is False
        assert "pool" in doc and "quota" in doc

    def test_metrics_is_valid_prometheus_with_service_counters(
        self, daemon
    ):
        # make sure at least one unit has flowed through
        status, doc, _ = request(
            daemon, "POST", "/v1/jobs", MICRO_CAMPAIGN, client="alice"
        )
        wait_terminal(daemon, doc["id"])
        with urllib.request.urlopen(daemon.address + "/metrics") as resp:
            assert resp.headers["Content-Type"].startswith("text/plain")
            text = resp.read().decode()
        assert validate_prometheus(text) == []
        assert "repro_service_jobs_submitted" in text
        assert "repro_service_units_total" in text
        assert "repro_service_requests" in text
