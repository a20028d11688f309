"""Plumbing shared by the workloads: statistics, context, set-up, digests.

Host time is always ``time.perf_counter``.  Simulated quantities
(cycles, counters, race keys, verdicts) are exact and go into the
simulated-statistics digest, which two runs of one commit and seed must
reproduce bit for bit.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

clock = time.perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: traces and scratch state, inside the checkout (git-ignored)
OUT_DIR = os.path.join(ROOT, ".perfbench")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        value = values[0] if values else 0.0
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values, pct):
    """Linear-interpolated *pct*-th percentile (inclusive method)."""
    values = sorted(values)
    if not values:
        return 0.0
    rank = (len(values) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(values) - 1)
    return values[low] + (values[high] - values[low]) * (rank - low)


def pass_rate(times, per_pass):
    """Ops per second over passes of *per_pass* ops (the last may stop
    part way): the op count ÷ the sum of each op's median time over the
    passes, which discounts a pass the host slowed down."""
    medians = [statistics.median(times[i::per_pass])
               for i in range(per_pass)]
    return per_pass / sum(medians)


def whole_passes(times, per_pass):
    """The op times of the whole passes, without a part-way last pass,
    so that every op of a pass weighs the same in a percentile."""
    return times[:len(times) - len(times) % per_pass]


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def sim_overhead(pairs):
    """Fig. 8's quantity: the geometric mean, over groups, of simulated
    cycles under scord ÷ under none.  *pairs* is an iterable of
    (group, detector, cycles); groups lacking either side are skipped."""
    sums = {}
    for group, detector, cycles in pairs:
        sums.setdefault(group, {}).setdefault(detector, 0)
        sums[group][detector] += cycles
    ratios = [side["scord"] / side["none"] for side in sums.values()
              if side.get("none") and side.get("scord")]
    return statistics.geometric_mean(ratios) if ratios else 0.0


def paired_overhead(untraced, traced):
    """Traced ÷ untraced time over the ops both phases completed.

    Returns (ratio of the summed times, IQR of the per-op ratios as a
    share of their median) — the overhead and its spread.
    """
    pairs = [(u, t) for u, t in zip(untraced, traced) if u > 0]
    if not pairs:
        return 0.0, 0.0
    overall = sum(t for _, t in pairs) / sum(u for u, _ in pairs)
    q1, med, q3 = quartiles([t / u for u, t in pairs])
    return overall, ratio(q3 - q1, med)


# ----------------------------------------------------------------------
# Run context (never folded into a metric)
# ----------------------------------------------------------------------
def calibrate():
    """Seconds for a fixed interpreter-bound loop (host speed)."""
    started = clock()
    acc = 0
    table = {}
    for i in range(2_000_000):
        acc += i & 0xFFFF
        if i & 1023 == 0:
            table[i & 8191] = acc
    if acc < 0:
        print(acc)
    return clock() - started


def run_context():
    samples = [calibrate() for _ in range(3)]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "calibration_s": round(statistics.median(samples), 4),
        "calibration_samples_s": [round(s, 4) for s in samples],
    }


# ----------------------------------------------------------------------
# Workload hooks
# ----------------------------------------------------------------------
#: hooks a workload module may leave out: (state) teardown, (state)
#: rebuild under the tracer's wrappers, (state, obs) extra per-layer
#: values, (obs) per-op seconds and (obs) (attempted, failed)
DEFAULT_HOOKS = {
    "close": lambda state: None,
    "fresh": lambda state: state,
    "layer_extra": lambda state, obs: {},
    "op_times": lambda obs: obs["times"],
    "op_count": lambda obs: (len(obs["times"]), 0),
}


def hook(workload, name):
    """The workload module's *name* hook, or the default."""
    return getattr(workload, name, DEFAULT_HOOKS[name])


# ----------------------------------------------------------------------
# Set-up and memory
# ----------------------------------------------------------------------
_SETUP_CHILD = (
    "import sys, time\n"
    "sys.path[:0] = {path!r}\n"
    "started = time.perf_counter()\n"
    "{imports}"
    "from perfbench import {module} as workload\n"
    "from perfbench.harness import hook\n"
    "state = workload.setup({seed})\n"
    "took = time.perf_counter() - started\n"
    "hook(workload, 'close')(state)\n"
    "print(took)\n"
)


def setup_seconds(workload, seed):
    """One set-up in a fresh interpreter: cold imports of the workload's
    modules, input generation and start-up (the daemon and its pool for
    ``serve``).  Its teardown is not timed."""
    code = _SETUP_CHILD.format(
        path=[SRC, ROOT], seed=seed,
        imports="".join(f"import {name}\n" for name in workload.MODULES),
        module=workload.__name__.rsplit(".", 1)[-1])
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=170, cwd=ROOT, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


#: set-ups per run: at least SETUP_MIN_REPS, and more (up to
#: SETUP_MAX_REPS) until they total SETUP_MIN_SECONDS, so a cheap
#: set-up's median rests on more samples
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 15
SETUP_MIN_SECONDS = 2.0


def timed_setup(workload, seed):
    """This process's set-up state and the median set-up seconds.

    The first sample is this process's own set-up, which imports the
    workload's modules cold as a child does; the rest run in fresh child
    interpreters, so that their garbage does not weigh on this process's
    timed phase.
    """
    started = clock()
    for name in workload.MODULES:
        importlib.import_module(name)
    state = workload.setup(seed)
    samples = [clock() - started]
    try:
        while len(samples) < SETUP_MIN_REPS or (
                sum(samples) < SETUP_MIN_SECONDS
                and len(samples) < SETUP_MAX_REPS):
            samples.append(setup_seconds(workload, seed))
    except BaseException:
        hook(workload, "close")(state)
        raise
    return state, statistics.median(samples)


def _status_kb(pid, field):
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def child_pids():
    """Live direct children of this process."""
    me = os.getpid()
    pids = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # the field after the parenthesised command is the state, then ppid
        fields = stat.rsplit(")", 1)[-1].split()
        if len(fields) > 1 and int(fields[1]) == me:
            pids.append(int(name))
    return pids


def peak_rss_mb(children=(), own=True):
    """Peak resident MiB of this process (if *own*) plus *children*'s."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if own else 0
    return (kb + sum(_status_kb(pid, "VmHWM") for pid in children)) / 1024


# ----------------------------------------------------------------------
# Simulated-statistics digest
# ----------------------------------------------------------------------
class Digest:
    """SHA-256 over canonical JSON of exact simulated outcomes."""

    def __init__(self):
        self._hash = hashlib.sha256()

    def add(self, item):
        text = json.dumps(item, sort_keys=True, separators=(",", ":"),
                          default=str)
        self._hash.update(text.encode())
        self._hash.update(b"\n")

    def add_launches(self, launches):
        for result in launches:
            self.add(["launch", result.kernel_name, result.cycles,
                      result.instructions, result.stats.as_dict()])

    def hexdigest(self):
        return self._hash.hexdigest()


class LaunchCapture:
    """Keeps each ``GPU.launch`` result while ``active`` is true.

    The one hook timed runs carry: a reference append per kernel launch,
    so the digest can cover the CounterBag deltas of the digested prefix.
    """

    def __init__(self):
        self.active = True
        self.results = []

    def mark(self):
        return len(self.results)

    def since(self, mark):
        return self.results[mark:]


@contextlib.contextmanager
def capture_launches():
    from repro.engine.gpu import GPU

    capture = LaunchCapture()
    original = GPU.__dict__["launch"]

    def launch(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        if capture.active:
            capture.results.append(result)
        return result

    GPU.launch = launch
    try:
        yield capture
    finally:
        GPU.launch = original


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def metric(value, unit):
    return {"value": value, "unit": unit}


def emit(correct, attempted, failed, metrics, lines=()):
    """Print the human lines, then the one-line JSON result last."""
    for line in lines:
        print(line)
    for name in sorted(metrics):
        entry = metrics[name]
        print(f"  {name:32s} {entry['value']:>16.6g} {entry['unit']}")
    sys.stdout.flush()
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(max(1, attempted)),
        "failed": int(failed),
        "metrics": metrics,
    }))
    sys.stdout.flush()
