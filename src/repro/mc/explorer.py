"""The stateless DPOR explorer: enumerate schedules, prove verdicts.

One :func:`explore` call drives a target (micro / app / litmus / fuzz
program) through many controlled executions:

1. **fair** — the engine's native time-ordered schedule (decision
   vector replayed empty, ``FAIR`` policy).  Every dynamically-caught
   race reproduces here, so parity with plain ScoRD is schedule #0.
2. **unfairness probes** — one greedy schedule per block (``("block",
   k)`` policy) that drives that block far ahead of the rest.  These
   catch value-dependent schedule bugs the HB reduction cannot reach by
   reversal alone — the UTS ``block_exch_global`` pattern, where a
   thief must drain its own work and go stealing while victims still
   run.
3. **DPOR** — sleep-set dynamic partial-order reduction rooted at the
   fair trace: every HB-unordered conflicting pair (see
   :mod:`repro.mc.dpor`) adds a backtrack point; the deepest pending
   backtrack is re-run as ``prefix + [alternative]`` until the frontier
   is exhausted or the schedule budget runs out.

Verdicts: any schedule on which the detector reports a race proves
``proven_racy`` (the recorded decision vector is the witness —
replayable bit-for-bit).  An exhausted frontier with no race proves
``proven_race_free`` *under the scoped reduction*; a spent budget is
``budget_exhausted``.

Exploration is resumable: after every completed schedule the frontier
(node tree, sleep sets, aggregates) is written atomically to a JSON
checkpoint; a killed exploration re-runs at most the one in-flight
schedule and lands on the bit-identical final report.  A corrupt
checkpoint is quarantined (renamed ``*.corrupt``) and exploration
restarts — the RunStore crash-tolerance contract.

``REPRO_MC_TEST_SLEEP`` (seconds, float) inserts a pause after each
schedule — a fault-injection hook for the kill/resume drill.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ReproError, WatchdogTimeout, error_code
from repro.mc.control import FAIR, ScheduleControl
from repro.mc.dpor import analyze, naive_estimate

#: schedules per target unless the caller says otherwise
DEFAULT_BUDGET = 256
#: most probe policies tried (one per block, capped)
MAX_PROBES = 8
#: race witnesses kept in the report
MAX_WITNESSES = 16
#: choice points materialized as DPOR nodes.  App traces can have
#: hundreds of thousands of choice points; a node per choice point
#: (plus its serialization into every checkpoint) does not scale, so
#: past this depth the tree is truncated and an exhausted frontier is
#: reported as ``budget_exhausted`` instead of ``proven_race_free``.
#: Micros, litmus tests, and fuzz programs sit far below the cap.
MAX_NODES = 4096

CHECKPOINT_SCHEMA = "mc-frontier/v1"


class _Node:
    """One choice point on the current DPOR path."""

    __slots__ = ("enabled", "chosen", "done", "backtrack", "sleeping")

    def __init__(self, enabled, chosen, done, backtrack, sleeping):
        self.enabled = tuple(enabled)
        self.chosen = chosen
        #: uid -> accesses of the explored branch step (None = pruned)
        self.done: Dict[int, Optional[Tuple]] = done
        self.backtrack: set = backtrack
        self.sleeping: frozenset = frozenset(sleeping)

    def as_dict(self) -> dict:
        return {
            "enabled": list(self.enabled),
            "chosen": self.chosen,
            "done": [
                [uid, None if acc is None else [list(a) for a in acc]]
                for uid, acc in sorted(self.done.items())
            ],
            "backtrack": sorted(self.backtrack),
            "sleeping": sorted(self.sleeping),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "_Node":
        done = {}
        for uid, acc in payload["done"]:
            done[uid] = (
                None if acc is None
                else tuple(tuple(a) for a in acc)
            )
        return cls(
            enabled=tuple(payload["enabled"]),
            chosen=payload["chosen"],
            done=done,
            backtrack=set(payload["backtrack"]),
            sleeping=frozenset(payload["sleeping"]),
        )


class _State:
    """Everything the explorer needs to continue after a kill."""

    def __init__(self, target: str, budget: int):
        self.target = target
        self.budget = budget
        self.first_done = False
        self.probes_left: List[int] = []
        self.nodes: List[_Node] = []
        self.explored = 0
        self.pruned = 0
        self.errors = 0
        self.naive = 0
        self.naive_capped = False
        self.choice_points = 0
        self.trace_steps = 0
        self.max_depth = 0
        self.frontier_truncated = False
        self.race_hits: List[dict] = []
        self.race_types: set = set()
        self.outcomes: Dict[str, int] = {}
        self.finish_reason: Optional[str] = None

    # -- (de)serialization --------------------------------------------
    def as_dict(self) -> dict:
        return {
            "schema": CHECKPOINT_SCHEMA,
            "target": self.target,
            "budget": self.budget,
            "first_done": self.first_done,
            "probes_left": list(self.probes_left),
            "nodes": [node.as_dict() for node in self.nodes],
            "explored": self.explored,
            "pruned": self.pruned,
            "errors": self.errors,
            "naive": self.naive,
            "naive_capped": self.naive_capped,
            "choice_points": self.choice_points,
            "trace_steps": self.trace_steps,
            "max_depth": self.max_depth,
            "frontier_truncated": self.frontier_truncated,
            "race_hits": self.race_hits,
            "race_types": sorted(self.race_types),
            "outcomes": dict(self.outcomes),
            "finish_reason": self.finish_reason,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "_State":
        state = cls(payload["target"], payload["budget"])
        state.first_done = payload["first_done"]
        state.probes_left = list(payload["probes_left"])
        state.nodes = [_Node.from_dict(n) for n in payload["nodes"]]
        state.explored = payload["explored"]
        state.pruned = payload["pruned"]
        state.errors = payload["errors"]
        state.naive = payload["naive"]
        state.naive_capped = payload["naive_capped"]
        state.choice_points = payload["choice_points"]
        state.trace_steps = payload["trace_steps"]
        state.max_depth = payload["max_depth"]
        state.frontier_truncated = payload["frontier_truncated"]
        state.race_hits = list(payload["race_hits"])
        state.race_types = set(payload["race_types"])
        state.outcomes = dict(payload["outcomes"])
        state.finish_reason = payload["finish_reason"]
        return state


class _RunOutcome:
    __slots__ = ("control", "race_types", "observed", "error")

    def __init__(self, control, race_types, observed, error):
        self.control = control
        self.race_types = race_types
        self.observed = observed
        self.error = error


def _run_one(target, prefix, policy, sleep_seed) -> _RunOutcome:
    control = ScheduleControl(
        prefix=prefix, policy=policy, sleep_seed=sleep_seed
    )
    gpu = None
    error = None
    try:
        gpu = target.execute(control)
    except WatchdogTimeout:
        raise  # the exploration's deadline, not this schedule's fault
    except ReproError as err:
        error = f"{error_code(err)}: {err}"
    race_types: List[str] = []
    observed = None
    if gpu is not None:
        race_types = sorted({
            record.race_type.value for record in gpu.races.unique_races
        })
        if target.observe is not None:
            observed = target.observe(gpu)
    return _RunOutcome(control, race_types, observed, error)


def _record_run(state: _State, outcome: _RunOutcome, source: str) -> None:
    schedule_index = state.explored
    state.explored += 1
    if outcome.error is not None:
        state.errors += 1
    if outcome.observed is not None:
        key = str(outcome.observed)
        state.outcomes[key] = state.outcomes.get(key, 0) + 1
    if outcome.race_types:
        state.race_types.update(outcome.race_types)
        if len(state.race_hits) < MAX_WITNESSES:
            state.race_hits.append({
                "schedule_index": schedule_index,
                "source": source,
                "race_types": list(outcome.race_types),
                "decisions": _witness_decisions(outcome.control),
            })


def _witness_decisions(control: ScheduleControl) -> List[int]:
    """The decision vector, truncated after the first racing step.

    Decisions beyond the race cannot un-happen it (the prefix forces
    every step up to and including the racing one, and detector state
    only accumulates), so a witness only needs the racing prefix —
    which keeps app witnesses to the racing neighborhood instead of
    hundreds of thousands of trailing, irrelevant decisions.
    """
    racing = None
    for step in control.steps:
        if step.races:
            racing = step.index
            break
    if racing is None:
        return list(control.decisions)
    cut = 0
    for choice in control.choices:
        if choice.step_index > racing:
            break
        cut += 1
    return list(control.decisions[:cut])


def _add_backtracks(state: _State, control: ScheduleControl) -> None:
    """Fold one trace's reversible races into the nodes' backtrack sets.

    Not called on a racing run under ``stop_on_race``: that run ends the
    exploration, and its checkpoint already records the final ``race``
    finish, so nothing would read the sets.
    """
    races = analyze(control.steps)
    if not races:
        return
    choice_by_step = {
        choice.step_index: index
        for index, choice in enumerate(control.choices)
    }
    for race in races:
        # The state before the earlier access: useful only if it was a
        # choice point (a forced state has a single enabled transition,
        # so the conservative "add all enabled" is a no-op there).
        index = choice_by_step.get(race.earlier_step)
        if index is None or index >= len(state.nodes):
            continue
        node = state.nodes[index]
        if race.later_uid in node.enabled:
            node.backtrack.add(race.later_uid)
        else:
            node.backtrack.update(node.enabled)


def _nodes_from_choices(
    control: ScheduleControl, start: int, limit: int
) -> List[_Node]:
    nodes = []
    for choice in control.choices[start:start + max(limit, 0)]:
        accesses = control.steps[choice.step_index].accesses
        nodes.append(_Node(
            enabled=choice.enabled,
            chosen=choice.chosen,
            done={choice.chosen: accesses},
            backtrack=set(),
            sleeping=choice.sleeping,
        ))
    return nodes


def _next_dpor(state: _State):
    """(node index, alternative uid) of the deepest pending backtrack.

    Sleep-set pruning happens here: an alternative that was asleep when
    its node was last visited is provably redundant and is marked done
    without running.  Returns None when the frontier is exhausted.
    """
    while True:
        found = None
        for index in range(len(state.nodes) - 1, -1, -1):
            node = state.nodes[index]
            todo = sorted(
                uid for uid in node.backtrack if uid not in node.done
            )
            if todo:
                found = (index, todo[0])
                break
        if found is None:
            return None
        index, uid = found
        node = state.nodes[index]
        if uid in node.sleeping:
            node.done[uid] = None
            state.pruned += 1
            continue
        return found


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------
def save_checkpoint(path: str, state: _State) -> None:
    from repro.experiments.store import atomic_write_text, canonical_json

    atomic_write_text(path, canonical_json(state.as_dict()) + "\n")


def load_checkpoint(path: str, target: str) -> Optional[_State]:
    """Load a frontier checkpoint; quarantine anything unusable."""
    if not os.path.exists(path):
        return None
    try:
        with open(path) as handle:
            payload = json.load(handle)
        if payload.get("schema") != CHECKPOINT_SCHEMA:
            raise ValueError(f"schema {payload.get('schema')!r}")
        if payload.get("target") != target:
            raise ValueError(
                f"checkpoint is for {payload.get('target')!r}, not {target!r}"
            )
        return _State.from_dict(payload)
    except (OSError, ValueError, KeyError, TypeError) as err:
        quarantined = path + ".corrupt"
        try:
            os.replace(path, quarantined)
        except OSError:
            quarantined = "(unlink failed)"
        import sys

        print(
            f"[mc] checkpoint {path} unusable ({err}); quarantined to "
            f"{quarantined}, starting fresh",
            file=sys.stderr,
        )
        return None


# ----------------------------------------------------------------------
# The explorer
# ----------------------------------------------------------------------
def explore(
    target,
    budget: int = DEFAULT_BUDGET,
    stop_on_race: bool = True,
    probes: bool = True,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    telemetry=None,
) -> dict:
    """Explore *target*'s schedules; returns an ``mc-report/v1`` dict."""
    from repro.mc.report import build_report

    if budget < 1:
        raise ValueError("mc budget must be >= 1")
    state: Optional[_State] = None
    if checkpoint_path and resume:
        state = load_checkpoint(checkpoint_path, target.label)
    if state is None:
        state = _State(target.label, budget)
    elif budget > state.budget:
        # Resuming with a larger budget extends a budget-exhausted
        # exploration; race/exhausted verdicts are final.
        state.budget = budget
        if state.finish_reason == "budget":
            state.finish_reason = None
    started = time.monotonic()
    test_sleep = float(os.environ.get("REPRO_MC_TEST_SLEEP", "0") or 0)

    def checkpoint() -> None:
        if checkpoint_path:
            save_checkpoint(checkpoint_path, state)
        if test_sleep:
            time.sleep(test_sleep)

    while state.finish_reason is None:
        if state.race_hits and stop_on_race:
            state.finish_reason = "race"
            break
        if state.explored >= state.budget:
            state.finish_reason = "budget"
            break
        if not state.first_done:
            outcome = _run_one(target, (), FAIR, None)
            state.first_done = True
            if probes:
                state.probes_left = list(
                    range(min(target.probe_blocks, MAX_PROBES))
                )
            control = outcome.control
            state.choice_points = len(control.choices)
            state.trace_steps = len(control.steps)
            state.naive, state.naive_capped = naive_estimate(
                [len(c.enabled) for c in control.choices]
            )
            if outcome.error is None:
                state.nodes = _nodes_from_choices(control, 0, MAX_NODES)
                if len(control.choices) > len(state.nodes):
                    state.frontier_truncated = True
                state.max_depth = len(state.nodes)
                if stop_on_race and outcome.race_types:
                    state.finish_reason = "race"
                else:
                    _add_backtracks(state, control)
            _record_run(state, outcome, "fair")
            checkpoint()
            continue
        if state.probes_left:
            block = state.probes_left[0]
            outcome = _run_one(target, (), ("block", block), None)
            _record_run(state, outcome, f"probe:block{block}")
            state.probes_left.pop(0)
            checkpoint()
            continue
        pending = _next_dpor(state)
        if pending is None:
            state.finish_reason = "exhausted"
            break
        index, alternative = pending
        node = state.nodes[index]
        prefix = tuple(
            state.nodes[i].chosen for i in range(index)
        ) + (alternative,)
        sleep_seed = {
            uid: accesses
            for uid, accesses in node.done.items()
            if accesses is not None and uid != alternative
        }
        outcome = _run_one(target, prefix, FAIR, sleep_seed)
        control = outcome.control
        node.chosen = alternative
        del state.nodes[index + 1:]
        if len(control.choices) > index:
            node.done[alternative] = (
                control.steps[control.choices[index].step_index].accesses
            )
            if outcome.error is None:
                state.nodes.extend(_nodes_from_choices(
                    control, index + 1, MAX_NODES - len(state.nodes)
                ))
                if len(control.choices) > len(state.nodes):
                    state.frontier_truncated = True
                state.max_depth = max(state.max_depth, len(state.nodes))
                if stop_on_race and outcome.race_types:
                    state.finish_reason = "race"
                else:
                    _add_backtracks(state, control)
        else:
            # The forced branch never reached its choice point (the run
            # errored first); mark it explored so the frontier drains.
            node.done[alternative] = ()
        _record_run(state, outcome, "dpor")
        checkpoint()

    checkpoint()
    elapsed = round(time.monotonic() - started, 3)
    report = build_report(state, target, stop_on_race, probes, elapsed)
    if telemetry is not None:
        metrics = telemetry.metrics
        metrics.counter("mc.targets").inc()
        metrics.counter("mc.schedules.explored").inc(state.explored)
        metrics.counter("mc.schedules.pruned").inc(state.pruned)
        metrics.counter("mc.races").inc(len(state.race_hits))
        metrics.counter(f"mc.verdict.{report['verdict']}").inc()
        metrics.gauge("mc.frontier.depth").set(state.max_depth)
        if report["prune_ratio"] is not None:
            metrics.gauge("mc.prune_ratio").set(report["prune_ratio"])
    return report
