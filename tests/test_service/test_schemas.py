"""Submission validation: what the front door accepts and refuses."""

import pytest

from repro.experiments.campaign import RunSpec
from repro.fuzz import Actor, Bug, FuzzProgram, Phase, PhaseKind
from repro.service.schemas import (
    ERROR_CODES,
    JOB_SCHEMA,
    ServiceError,
    client_name,
    parse_submission,
)


def campaign_body(units):
    return {"schema": JOB_SCHEMA, "units": units}


def program_body(program, **extra):
    return {"schema": JOB_SCHEMA, "program": program.to_dict(), **extra}


CLEAN = FuzzProgram(2, 2, (
    Phase(PhaseKind.HANDOFF, Actor(0, 0), Actor(1, 0)),
))


def expect_bad_request(body, fragment):
    with pytest.raises(ServiceError) as err:
        parse_submission(body)
    assert err.value.code == "bad-request"
    assert err.value.status == 400
    assert fragment in err.value.message


class TestCampaignSubmissions:
    def test_valid_units_become_runspecs(self):
        parsed = parse_submission(campaign_body([
            {"app": "RED"},
            {"app": "MM", "detector": "base", "memory": "high",
             "races": ["block_fence"], "seed": 3},
        ]))
        assert parsed["kind"] == "campaign"
        assert parsed["specs"][0] == RunSpec("RED")
        assert parsed["specs"][1] == RunSpec(
            "MM", "base", "high", ("block_fence",), 3
        )

    def test_requires_the_schema_stamp(self):
        with pytest.raises(ServiceError) as err:
            parse_submission({"units": [{"app": "RED"}]})
        assert "schema" in err.value.message

    def test_rejects_unknown_app_detector_memory(self):
        expect_bad_request(campaign_body([{"app": "nope"}]), ".app")
        expect_bad_request(
            campaign_body([{"app": "RED", "detector": "nope"}]), ".detector"
        )
        expect_bad_request(
            campaign_body([{"app": "RED", "memory": "nope"}]), ".memory"
        )

    def test_rejects_empty_units_and_bad_seed(self):
        expect_bad_request(campaign_body([]), "non-empty")
        expect_bad_request(
            campaign_body([{"app": "RED", "seed": "x"}]), ".seed"
        )

    def test_rejects_units_and_program_together(self):
        body = campaign_body([{"app": "RED"}])
        body["program"] = CLEAN.to_dict()
        expect_bad_request(body, "exactly one")


class TestProgramSubmissions:
    def test_valid_program_round_trips(self):
        parsed = parse_submission(program_body(CLEAN))
        assert parsed["kind"] == "program"
        assert "seeds" not in parsed
        assert parsed["detector"] == "scord"
        assert parsed["on_static_race"] == "reject"
        assert parsed["program"].to_dict() == CLEAN.to_dict()

    def test_rejects_garbage_programs(self):
        body = {"schema": JOB_SCHEMA, "program": {"schema": "nope"}}
        expect_bad_request(body, "program")

    def test_rejects_bad_seeds_and_policies(self):
        # A program job runs its program once: any seeds field, even a
        # once-valid sweep, is refused by name rather than ignored.
        for seeds in ([], [True], [0], [0, 1, 2]):
            expect_bad_request(program_body(CLEAN, seeds=seeds), "seeds")
        expect_bad_request(
            program_body(CLEAN, on_static_race="maybe"), "on_static_race"
        )


class TestClientName:
    def test_header_wins_over_body(self):
        assert client_name("alice", {"client": "bob"}) == "alice"

    def test_body_fallback_then_anonymous(self):
        assert client_name(None, {"client": "bob"}) == "bob"
        assert client_name("", {}) == "anonymous"
        assert client_name(None, None) == "anonymous"

    def test_rejects_absurd_names(self):
        with pytest.raises(ServiceError):
            client_name("x" * 200, {})


class TestErrorEnvelope:
    def test_every_code_has_an_http_status(self):
        for code, status in ERROR_CODES.items():
            assert 400 <= status < 600, code

    def test_to_dict_carries_code_and_detail(self):
        err = ServiceError("quota-exceeded", "no", {"retry_after_seconds": 2})
        assert err.to_dict() == {
            "error": {
                "code": "quota-exceeded",
                "message": "no",
                "retry_after_seconds": 2,
            }
        }

    def test_unknown_codes_are_a_programming_error(self):
        with pytest.raises(ValueError):
            ServiceError("no-such-code", "boom")
