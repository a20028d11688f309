"""``serve``: an in-process scord-serve daemon under closed-loop clients.

Set-up draws the job schedule from the seed, starts a
:class:`ServiceDaemon` on ``port=0`` with a durable run store and an
on-disk result cache (fresh directories under ``.perfbench/``), and
warms its worker pool.  Then two client threads (never more than
``nproc``) each run a closed loop: POST ``/v1/jobs``, read
``/report?stream=1`` to the end, send the next job.  One op is one job,
timed from the POST to the last report line.

The traffic is the repository's own record of how the daemon is used,
the worked example of ``docs/service.md`` §6 and the CI service-smoke
job, repeated.  Each client sends rounds of four jobs in seeded order:

* a fresh campaign job of the CI job's shape, ``[(a, scord), (a, none),
  (b, scord)]`` on a fresh seeded input seed, with ``(a, b)`` RED then
  MM and MM then RED in turn (the seed picks each client's first): it
  runs on the pool and writes the cache and the store;
* a fresh racy ``programs(racy=True)`` draw under the default preflight
  policy: scolint refuses it 422, as in the worked example;
* two resubmissions of the client's earlier campaigns (seeded choices),
  answered from the service's caches, as Bob's and Carol's are.

The shares are the CI job's: one fresh campaign to two identical
submissions (Bob's and Carol's), plus the worked example's refused
program.  The two campaign orders alternate, rather than being drawn,
because the MM-first campaign costs about 1.2x the RED-first one and a
drawn share would move the latencies with the seed.

After the timed phase every campaign record is compared with every
other answer for the same unit, a sample of the units
(:func:`reference_keys`) with the in-process :class:`Runner` record (two
worker interpreters share that work), and every program verdict with
the program's ground truth.  A 429, a 5xx, a unit failure or a timeout
counts as a failed op.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import urllib.error
import urllib.request

from perfbench import tracer as tracing
from perfbench.harness import (
    OUT_DIR, ROOT, SRC, Digest, capture_launches, child_pids, clock, metric,
    peak_rss_mb, percentile, ratio, sim_overhead,
)

MODULES = ("repro.service.daemon", "repro.experiments.supervisor",
           "hypothesis", "repro.fuzz.strategies")

CLIENTS = max(1, min(2, os.cpu_count() or 1))
ROUND = ("campaign", "program", "repeat", "repeat")
#: the two apps of the CI service-smoke campaign
CAMPAIGN_APPS = ("RED", "MM")
#: rounds scheduled per client: about twice what a 25 s run completes
#: on a 2-cpu host; the rates are taken over the time spent
ROUNDS = 40
#: jobs per client that every run completes and digests: two rounds
DIGEST_JOBS = 8
#: campaign units the check re-simulates in-process per run
REFERENCE_UNITS = 16
#: the job-latency percentile reported as ``op_s_tail``: a 25 s run
#: completes >= 90 jobs on a 2-cpu host, so at least 18 lie beyond it;
#: fresh campaigns are the slowest quarter of the jobs, so p80 lies
#: among them
TAIL_PERCENTILE = 80
#: per-request socket timeout; a timeout is a failed op
REQUEST_TIMEOUT_S = 120


def schedules(seed, programs):
    """Each client's job list: dicts with ``body`` and expectations.

    The seed picks each round's order, each client's first campaign app
    order and every input seed, the programs, and which earlier campaign
    each repeat resubmits.  A client's first round starts with its
    campaign.
    """
    from repro.service.schemas import JOB_SCHEMA

    rng = random.Random(seed)
    fresh_programs = iter(programs)
    plans = [[] for _ in range(CLIENTS)]
    campaigns = [[] for _ in range(CLIENTS)]
    flips = [rng.randrange(2) for _ in range(CLIENTS)]
    for _ in range(ROUNDS):
        for jobs, earlier, flip in zip(plans, campaigns, flips):
            order = rng.sample(ROUND, len(ROUND))
            if not earlier:
                order.remove("campaign")
                order.insert(0, "campaign")
            for kind in order:
                if kind == "campaign":
                    first, second = (
                        CAMPAIGN_APPS if (len(earlier) + flip) % 2 == 0
                        else CAMPAIGN_APPS[::-1])
                    input_seed = rng.randrange(1, 1 << 30)
                    job = {"kind": "campaign", "repeat": False,
                           "body": {"schema": JOB_SCHEMA, "units": [
                               {"app": app, "detector": det,
                                "seed": input_seed}
                               for app, det in ((first, "scord"),
                                                (first, "none"),
                                                (second, "scord"))]}}
                    earlier.append(job)
                elif kind == "program":
                    program = next(fresh_programs)
                    job = {"kind": "program", "repeat": False,
                           "racy": program.racy,
                           "body": {"schema": JOB_SCHEMA,
                                    "program": program.to_dict()}}
                else:
                    job = dict(rng.choice(earlier), repeat=True)
                jobs.append(job)
    return plans


def _start_daemon():
    """A daemon on a free port, fresh store and cache, pool warmed."""
    from repro.experiments.campaign import RunSpec
    from repro.service.daemon import ServiceDaemon
    from repro.service.jobs import ServiceConfig

    os.makedirs(OUT_DIR, exist_ok=True)
    work = os.path.join(OUT_DIR, f"serve-{os.getpid()}-{clock():.6f}")
    os.makedirs(work)
    config = ServiceConfig(
        port=0, workers=CLIENTS, dispatchers=CLIENTS,
        store_path=os.path.join(work, "runs.jsonl"),
        cache_dir=os.path.join(work, "cache"),
        # quotas are not under test: no job may be refused for them
        quota_units=1e9, quota_refill_per_s=1e9,
    )
    daemon = ServiceDaemon(config).start()
    warm = [threading.Thread(
        target=daemon.manager.supervisor.execute,
        args=(RunSpec(app="RED", detector="none", seed=0),))
        for _ in range(CLIENTS)]
    for thread in warm:
        thread.start()
    for thread in warm:
        thread.join()
    return daemon, work


def setup(seed):
    from perfbench.fuzzmc import draw_programs

    plans = schedules(seed, draw_programs(seed, CLIENTS * ROUNDS,
                                          racy=True))
    daemon, work = _start_daemon()
    return {"seed": seed, "plans": plans, "daemon": daemon, "work": work}


def close(state):
    if state.get("daemon") is not None:
        state["daemon"].close()
        state["daemon"] = None
    if state.get("work"):
        shutil.rmtree(state["work"], ignore_errors=True)
        state["work"] = None


def fresh(state):
    close(state)
    state["daemon"], state["work"] = _start_daemon()
    return state


# ----------------------------------------------------------------------
# The closed-loop clients
# ----------------------------------------------------------------------
def _request(url, body=None, client=None):
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(url, data=data)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    if client:
        request.add_header("X-Scord-Client", client)
    try:
        with urllib.request.urlopen(request,
                                    timeout=REQUEST_TIMEOUT_S) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as err:
        return err.code, err.read()


def _span(tracer, layer, **attrs):
    return (tracer.span(layer, **attrs) if tracer is not None
            else contextlib.nullcontext())


def run_job(base_url, client, job, tracer=None):
    """POST one job and read its report stream; returns an outcome."""
    started = clock()
    outcome = {"status": None, "error": None, "lines": [], "answer": None}
    try:
        with _span(tracer, "service.post", client=client):
            status, raw = _request(base_url + "/v1/jobs", job["body"], client)
        outcome["status"] = status
        answer = json.loads(raw.decode() or "null")
        outcome["answer"] = answer
        if status == 202:
            _, stream = _request(f"{base_url}/v1/jobs/{answer['id']}"
                                 f"/report?stream=1")
            outcome["lines"] = [json.loads(line)
                                for line in stream.decode().splitlines()]
    except (OSError, ValueError, KeyError) as err:
        outcome["error"] = f"{type(err).__name__}: {err}"
    outcome["seconds"] = clock() - started
    return outcome


def _client_loop(index, base_url, jobs, deadline, out):
    name = f"perfbench-{index}"
    tracer = tracing.active()
    for number, job in enumerate(jobs):
        if number >= DIGEST_JOBS and clock() >= deadline:
            break
        with _span(tracer, "service.job", client=name,
                   kind=job["kind"]) as span:
            if span is not None:
                tracer.client_jobs[name] = (span["trace"], span["id"])
            out.append(run_job(base_url, name, job, tracer))


def measure(state, seconds):
    daemon = state["daemon"]
    outcomes = [[] for _ in state["plans"]]
    started = clock()
    threads = [
        threading.Thread(target=_client_loop, args=(
            index, daemon.address, jobs, started + seconds,
            outcomes[index]))
        for index, jobs in enumerate(state["plans"])]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = clock() - started
    return {
        "outcomes": outcomes, "elapsed": elapsed,
        "children_peak_mb": peak_rss_mb(child_pids(), own=False),
        "pool": daemon.manager.supervisor.stats(),
    }


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def _failure(outcome):
    """Why an op failed (refused, 5xx, timeout, unit failure), or None."""
    if outcome["error"]:
        return outcome["error"]
    if outcome["status"] not in (202, 422):
        return f"HTTP {outcome['status']}"
    if outcome["status"] == 202:
        lines = outcome["lines"]
        if not lines or not lines[-1].get("done"):
            return "report stream ended early"
        if lines[-1].get("state") != "done":
            return f"job {lines[-1].get('state')}"
    return None


def _units(outcome):
    """A report stream's unit lines (between status and summary)."""
    return outcome["lines"][1:-1]


def _pairs(state, obs):
    for plan, outcomes in zip(state["plans"], obs["outcomes"]):
        yield from zip(plan, outcomes)


def _spec_key(spec):
    return (spec["app"], spec["detector"], spec["memory"],
            tuple(spec["races"]), spec["seed"])


def _body_key(unit):
    """The unit key of a submitted campaign unit (default memory, no
    injected race)."""
    return unit["app"], unit["detector"], "default", (), unit["seed"]


def _digested(state, obs):
    """Each client's first DIGEST_JOBS (job, outcome) pairs."""
    for plan, outcomes in zip(state["plans"], obs["outcomes"]):
        yield from list(zip(plan, outcomes))[:DIGEST_JOBS]


def reference_keys(state, obs):
    """The campaign units the check re-simulates in-process: every unit
    of the digested jobs, then a seeded sample of the other answered
    units, REFERENCE_UNITS in all, so the check's cost does not grow
    with the traffic."""
    keys = list(dict.fromkeys(
        _body_key(unit) for job, _ in _digested(state, obs)
        if job["kind"] == "campaign" for unit in job["body"]["units"]))
    answered = dict.fromkeys(
        _spec_key(unit["spec"]) for job, outcome in _pairs(state, obs)
        if job["kind"] == "campaign" and _failure(outcome) is None
        for unit in _units(outcome))
    rest = [key for key in answered if key not in keys]
    take = min(len(rest), max(0, REFERENCE_UNITS - len(keys)))
    return keys + random.Random(state["seed"]).sample(rest, take)


def reference_record(key):
    """The in-process Runner record of one unit, and its launches."""
    from repro.experiments.runner import Runner
    from repro.experiments.store import semantic_record_dict
    from repro.scor.apps.registry import app_by_name

    app, detector, memory, races, seed = key
    with capture_launches() as capture:
        record = Runner(verbose=False).run(
            app_by_name(app), detector=detector, memory=memory,
            races=races, seed=seed)
    launches = [[r.kernel_name, r.cycles, r.instructions, r.stats.as_dict()]
                for r in capture.results]
    return semantic_record_dict(record), launches


#: a reference worker: unit keys in on stdin, records out on stdout
_REFERENCE_WORKER = (
    "import json, sys\n"
    "sys.path[:0] = {path!r}\n"
    "from perfbench.serve import reference_record\n"
    "keys = [(a, d, m, tuple(r), s) for a, d, m, r, s in json.load(sys.stdin)]\n"
    "print(json.dumps([reference_record(key) for key in keys]))\n"
)


def _references(state, obs):
    """In-process records of the :func:`reference_keys` units, computed
    once per run by CLIENTS worker interpreters sharing the keys."""
    references = state.setdefault("references", {})
    keys = [key for key in reference_keys(state, obs)
            if key not in references]
    code = _REFERENCE_WORKER.format(path=[SRC, ROOT])
    shares = [keys[i::CLIENTS] for i in range(CLIENTS) if keys[i::CLIENTS]]
    workers = [subprocess.Popen(
        [sys.executable, "-c", code], cwd=ROOT, text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE) for _ in shares]
    try:
        # every worker gets its keys before any is read, so they run at once
        for share, worker in zip(shares, workers):
            worker.stdin.write(json.dumps(share))
            worker.stdin.close()
        for share, worker in zip(shares, workers):
            out = worker.stdout.read()
            worker.stdout.close()
            if worker.wait(timeout=600):
                raise RuntimeError("a reference worker failed")
            for key, (record, launches) in zip(share, json.loads(out)):
                references[key] = (record, launches)
    finally:
        for worker in workers:
            if worker.poll() is None:
                worker.kill()
                worker.wait()
    return references


def check(state, obs):
    from repro.experiments.store import (
        record_from_dict, semantic_record_dict,
    )

    references = _references(state, obs)
    answers = {}
    errors = []
    for job, outcome in _pairs(state, obs):
        if _failure(outcome) is not None:
            continue
        if job["kind"] == "campaign":
            for unit in _units(outcome):
                key = _spec_key(unit["spec"])
                got = semantic_record_dict(record_from_dict(unit["record"]))
                if got != answers.setdefault(key, got):
                    errors.append(f"{unit['unit']}: the service answered "
                                  f"one unit with two different records")
                if key in references and got != references[key][0]:
                    errors.append(f"{unit['unit']}: service record differs "
                                  f"from the in-process Runner record")
        elif outcome["status"] == 422:
            code = outcome["answer"]["error"]["code"]
            if code != "static-race" or not job["racy"]:
                errors.append(f"program job refused ({code}) but its "
                              f"ground truth is racy={job['racy']}")
        else:
            verdict = _program_verdict(outcome)
            if verdict is not job["racy"]:
                errors.append(f"program job verdict racy={verdict}, "
                              f"ground truth racy={job['racy']}")
            if job["racy"]:
                errors.append("the preflight accepted a racy program")
    return errors


def _program_verdict(outcome):
    """The seed-sweep union of a program job's unit verdicts."""
    return any(unit["verdict"]["racy"] for unit in _units(outcome))


def digest(state, obs):
    references = _references(state, obs)
    d = Digest()
    for job, outcome in _digested(state, obs):
        if _failure(outcome) is not None:
            d.add("failed")
        elif job["kind"] == "campaign":
            for unit in job["body"]["units"]:
                d.add(references.get(_body_key(unit)))
        elif outcome["status"] == 422:
            d.add(["refused", outcome["answer"]["error"]["static"]])
        else:
            d.add(["verdicts", outcome["lines"][-1].get("static"),
                   [unit.get("verdict") for unit in _units(outcome)]])
    return d.hexdigest()


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def op_count(obs):
    attempted = failed = 0
    for outcomes in obs["outcomes"]:
        for outcome in outcomes:
            attempted += 1
            failed += _failure(outcome) is not None
    return attempted, failed


def op_times(obs):
    """Job latencies, client-interleaved, in schedule order."""
    times = []
    for row in zip(*obs["outcomes"]):
        times += [outcome["seconds"] for outcome in row]
    return times


def end_to_end(state, obs):
    answered = [outcome["seconds"] for _, outcome in _pairs(state, obs)
                if _failure(outcome) is None]
    # per app, over the jobs that ran it under both none and scord
    overhead = sim_overhead(
        (unit["spec"]["app"], unit["spec"]["detector"],
         unit["record"]["cycles"])
        for job, outcome in _pairs(state, obs)
        if job["kind"] == "campaign" and _failure(outcome) is None
        # a campaign's first two units are one app under scord and none
        for unit in _units(outcome)[:2])
    return {
        "ops_per_s": metric(len(answered) / obs["elapsed"], "1/s"),
        "op_s_p50": metric(percentile(answered, 50), "s"),
        "op_s_tail": metric(percentile(answered, TAIL_PERCENTILE), "s"),
        "scord_sim_overhead": metric(overhead, "x"),
    }


def layer_extra(state, obs):
    units = hits = coalesced = 0
    for _, outcome in _pairs(state, obs):
        for unit in _units(outcome):
            units += 1
            hits += unit.get("source") in ("cache", "coalesced")
            coalesced += unit.get("source") == "coalesced"
    return {
        "pool.restarts": obs["pool"]["restarts"],
        "pool.retries": obs["pool"]["units_retried"],
        "service.hit_ratio": ratio(hits, units),
        "service.coalesced": coalesced,
    }
