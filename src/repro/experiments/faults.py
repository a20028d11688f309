"""Deliberate fault injection for the campaign resilience tests.

Recovery paths that are never exercised do not exist.  Following GPUMC's
discipline of *proving* checking machinery rather than trusting it, this
module injects the three failure shapes the campaign layer claims to
survive:

* **hang** — the worker stops making progress (caught by the parent's
  wall-clock timeout, then retried);
* **crash** — the worker dies abruptly without a record (``os._exit``,
  indistinguishable from a SIGKILL'd process);
* **error** — the simulation raises a :class:`SimulationError`
  (exercises the structured worker-error protocol);

plus **store corruption** (:func:`corrupt_store`) — torn tails, garbage
bytes, and schema drift in a run store, which ``RunStore.load``
must quarantine rather than crash on.

The warm worker pool (``repro.experiments.pool``) has failure shapes a
one-shot subprocess cannot exhibit, so four pool-specific actions join
the list — each engineered to surface as a *distinct* code from the
:mod:`repro.common.errors` taxonomy:

* **pool-kill** — SIGKILL self mid-unit (→ ``worker-crash``);
* **pool-hang** — go silent: no heartbeats, no result (→
  ``worker-hang``);
* **pool-frame** — emit a corrupt result frame: valid length prefix,
  garbage body (→ ``protocol-desync``);
* **pool-loris** — keep the pipe warm by trickling partial frame bytes
  that never complete (→ ``slow-loris``);
* **pool-slow** — not a fault: wait :data:`SLOW_UNIT_SECONDS`, beating
  the unit's watchdog, then simulate (a slow unit that needs no CPU).

A :class:`FaultPlan` is parent-side policy: it decides, per run and per
attempt, which action the worker is told to perform — e.g. "hang on the
first attempt, behave on the second" proves the retry path end to end.
:class:`ChaosPlan` is its stochastic-shaped cousin for chaos campaigns:
kill every Nth dispatched unit's first attempt, deterministically.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import threading
import time
from typing import Optional, Tuple

from repro.common.errors import ConfigError, SimulationError

#: pool-worker actions (served by :func:`apply_pool_fault`)
POOL_ACTIONS = (
    "pool-kill", "pool-hang", "pool-frame", "pool-loris", "pool-slow",
)

#: how long a ``pool-slow`` unit waits before it simulates
SLOW_UNIT_SECONDS = 1.0

#: worker-side actions a plan may request
ACTIONS = ("hang", "crash", "error") + POOL_ACTIONS

#: exit code of a deliberately crashed worker (recognizable in stderr)
CRASH_EXIT_CODE = 23


@dataclasses.dataclass(frozen=True)
class FaultRule:
    """Inject *actions* (one per attempt) into matching runs.

    ``None`` fields match anything; ``actions[i]`` applies to attempt
    ``i + 1`` and attempts beyond the list run clean — so
    ``actions=("hang",)`` means "hang once, then behave".
    """

    actions: Tuple[Optional[str], ...]
    app: Optional[str] = None
    detector: Optional[str] = None
    memory: Optional[str] = None

    def __post_init__(self):
        for action in self.actions:
            if action is not None and action not in ACTIONS:
                raise ConfigError(
                    f"unknown fault action {action!r}; known: {ACTIONS}"
                )

    def matches(self, app: str, detector: str, memory: str) -> bool:
        return (
            (self.app is None or self.app == app)
            and (self.detector is None or self.detector == detector)
            and (self.memory is None or self.memory == memory)
        )


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """An ordered rule list; the first matching rule decides."""

    rules: Tuple[FaultRule, ...] = ()

    def action_for(
        self, app: str, detector: str, memory: str, attempt: int
    ) -> Optional[str]:
        """The action for *attempt* (1-based) of this run, or None."""
        for rule in self.rules:
            if rule.matches(app, detector, memory):
                if 1 <= attempt <= len(rule.actions):
                    return rule.actions[attempt - 1]
                return None
        return None

    @staticmethod
    def always(action: str, app: Optional[str] = None,
               attempts: int = 64) -> "FaultPlan":
        """A plan injecting *action* on every attempt (optionally per app)."""
        return FaultPlan((FaultRule((action,) * attempts, app=app),))

    @staticmethod
    def once(action: str, app: Optional[str] = None) -> "FaultPlan":
        """A plan injecting *action* on the first attempt only."""
        return FaultPlan((FaultRule((action,), app=app),))


class ChaosPlan:
    """Inject *action* into the first attempt of every *every*-th unit.

    Duck-types :meth:`FaultPlan.action_for`, but keeps a dispatch
    counter so a chaos campaign can say "kill a worker every N units"
    without enumerating rules.  Retries never count as dispatches and
    always run clean, so a chaos campaign converges to the same records
    a clean run produces — the property the chaos-recovery test pins.

    The counter is lock-guarded: scheduler dispatchers call ``action_for``
    concurrently.
    """

    def __init__(self, action: str = "pool-kill", every: int = 3):
        if action not in ACTIONS:
            raise ConfigError(
                f"unknown fault action {action!r}; known: {ACTIONS}"
            )
        if every < 1:
            raise ConfigError(f"ChaosPlan every={every} must be >= 1")
        self.action = action
        self.every = every
        self._lock = threading.Lock()
        self._dispatched = 0
        #: faults actually handed out (manifest cross-check)
        self.injected = 0

    def action_for(
        self, app: str, detector: str, memory: str, attempt: int
    ) -> Optional[str]:
        if attempt != 1:
            return None
        with self._lock:
            self._dispatched += 1
            if self._dispatched % self.every == 0:
                self.injected += 1
                return self.action
        return None


def apply_fault(action: Optional[str]) -> None:
    """Execute an injected fault inside the worker process."""
    if action is None:
        return
    if action == "hang":
        # Park well past any sane campaign timeout; the parent kills us.
        time.sleep(3600)
    elif action == "crash":
        os._exit(CRASH_EXIT_CODE)
    elif action == "error":
        raise SimulationError("injected fault: deliberate simulation error")
    else:
        raise ConfigError(f"unknown fault action {action!r}")


def apply_pool_fault(
    action: Optional[str], out, request_id, beat_every: float,
    guard_factory=None,
) -> None:
    """Execute an injected fault inside a *pool* worker, mid-unit.

    *out* is the worker's raw frame stream (``sys.stdout.buffer``) —
    the frame-level faults write directly to it, bypassing the framing
    helpers, because corrupting the wire is exactly the point.  Legacy
    one-shot actions (``hang``/``crash``/``error``) delegate to
    :func:`apply_fault` so existing plans keep working against a pool.
    """
    if action is None:
        return
    if action not in POOL_ACTIONS:
        apply_fault(action)
        return
    if action == "pool-kill":
        # Indistinguishable from the OOM killer: no goodbye frame, the
        # parent sees EOF mid-conversation (→ worker-crash).
        os.kill(os.getpid(), signal.SIGKILL)
    elif action == "pool-hang":
        # Total silence: no heartbeat, no result.  The parent's
        # liveness window expires (→ worker-hang).
        time.sleep(3600)
    elif action == "pool-frame":
        # A plausible length prefix followed by garbage: the parent
        # decodes the body, fails to parse it (→ protocol-desync).
        import struct

        out.write(struct.pack(">I", 32) + b"\xde\xad\xbe\xef" * 8)
        out.flush()
        time.sleep(3600)  # never send the real result after desyncing
    elif action == "pool-loris":
        # Announce a frame, then dribble bytes that never complete it:
        # the pipe stays warm but no frame ever lands (→ slow-loris).
        import struct

        out.write(struct.pack(">I", 4096))
        out.flush()
        while True:
            time.sleep(max(0.05, beat_every / 4))
            out.write(b".")
            out.flush()
    elif action == "pool-slow":
        # Sleep, not spin: survival depends on heartbeats, not host load.
        guard = guard_factory()
        guard.start()
        while guard.elapsed() < SLOW_UNIT_SECONDS:
            time.sleep(0.01)
            guard.check(cycle=0, events_processed=0)


# ----------------------------------------------------------------------
# Store corruption (test helper)
# ----------------------------------------------------------------------
def corrupt_store(path, line: int = 0, mode: str = "garbage") -> None:
    """Corrupt one line of a JSONL store file, in place.

    *mode*: ``garbage`` (non-JSON bytes), ``truncate`` (torn write — the
    line is cut in half, as a SIGKILL mid-append would leave it), or
    ``schema`` (valid JSON with an unsupported schema version).
    """
    with open(path, "r") as handle:
        lines = handle.readlines()
    if not lines:
        raise ConfigError(f"cannot corrupt empty store {path}")
    target = lines[line].rstrip("\n")
    if mode == "garbage":
        lines[line] = "{this is not json at all\n"
    elif mode == "truncate":
        lines[line] = target[: max(1, len(target) // 2)] + "\n"
    elif mode == "schema":
        lines[line] = '{"schema": 999999}\n'
    else:
        raise ConfigError(f"unknown corruption mode {mode!r}")
    with open(path, "w") as handle:
        handle.writelines(lines)
