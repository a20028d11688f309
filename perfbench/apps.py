"""``apps``: serial, in-process ScoR units under none, base and scord.

Each pass runs, on a fresh :class:`Runner` with no store and no result
cache (so every unit simulates):

* race-free units (Fig. 8 style) of RED and 1DC, each on an input seed
  drawn from the tier-2 sweep's proven-clean seeds, and of GCON on the
  Table VI seed's graph;
* racy units of RED and 1DC, each with one drawn Table VI race flag, at
  the Table VI seed;

every one under the ``none``, ``base`` and ``scord`` detectors.  Passes
repeat until the run's time is spent (the first is whole, the last may
stop part way); every pass is the same work.  One op is one unit; ``ops_per_s``
divides the pass's units by the sum of each unit's median time over the
passes.

The seed draws only inputs whose cost does not depend on the draw: RED's
and 1DC's simulated cycles are the same on every clean input and RED's
two flags cost alike.  GCON's graph is fixed because its cost does
depend on it (31k to 49k simulated cycles under ``none`` over the clean
seeds), which would make the metrics depend on the seed's draw.  UTS,
GCOL and the other flags are left out for cost and cost spread: one UTS
racy unit under ``base`` takes 33 s, and GCON/GCOL flags differ 4x.
"""

from __future__ import annotations

import itertools
import random

from perfbench.harness import (
    Digest, capture_launches, clock, metric, pass_rate, percentile,
    sim_overhead, whole_passes,
)

MODULES = ("repro.experiments.runner", "repro.scor.apps.registry")

SEEDED_APPS = ("RED", "1DC")
#: race-free apps on the Table VI seed's input
FIXED_APPS = ("GCON",)
RACY_APPS = ("RED", "1DC")
DETECTORS = ("none", "base", "scord")
#: input seeds the tier-2 sweep proves race-free and verifying for
#: every app (tests/test_scor/test_schedule_sweep.py)
CLEAN_SEEDS = tuple(range(1, 11)) + tuple(range(101, 111))
#: the seed Table VI's flag outcomes are recorded at
TABLE_SEED = 1
#: the unit-latency percentile reported as ``op_s_tail``, over the
#: whole passes (a 25 s run on a 2-cpu host holds three, 45 units, so
#: 11 lie beyond it)
TAIL_PERCENTILE = 75


def units_for(seed):
    """The pass's units: (app, detector, flags, input seed)."""
    from repro.scor.apps.registry import app_by_name

    rng = random.Random(seed)
    units = []
    for app in SEEDED_APPS:
        input_seed = rng.choice(CLEAN_SEEDS)
        units += [(app, det, (), input_seed) for det in DETECTORS]
    for app in FIXED_APPS:
        units += [(app, det, (), TABLE_SEED) for det in DETECTORS]
    for app in RACY_APPS:
        flag = rng.choice(app_by_name(app).RACE_FLAGS).name
        units += [(app, det, (flag,), TABLE_SEED) for det in DETECTORS]
    return units


def expected_types(units):
    """(app, flag) -> the Table VI race types that flag must show."""
    from repro.scor.apps.registry import app_by_name

    return {
        (app, flags[0]): app_by_name(app).flag_named(flags[0]).expected_types
        for app, _, flags, _ in units if flags
    }


def setup(seed):
    units = units_for(seed)
    return {"units": units, "expected": expected_types(units)}


def measure(state, seconds):
    """Units in pass order, over and over, until *seconds* have passed
    and the first pass is whole; the first pass is digested."""
    from repro.experiments.runner import Runner
    from repro.scor.apps.registry import app_by_name

    units = state["units"]
    times = []
    records = []
    launches = []
    deadline = clock() + seconds
    with capture_launches() as capture:
        for index in itertools.count():
            if index >= len(units) and clock() >= deadline:
                break
            if index % len(units) == 0:
                runner = Runner(verbose=False)
                capture.active = index == 0
            app, det, flags, input_seed = units[index % len(units)]
            mark = capture.mark()
            unit_started = clock()
            record = runner.run(app_by_name(app), detector=det,
                                races=flags, seed=input_seed)
            times.append(clock() - unit_started)
            records.append(record)
            if index < len(units):
                launches.append(capture.since(mark))
    return {"times": times, "records": records, "launches": launches}


def check(state, obs, expected=None):
    """Every output check; returns a list of error strings."""
    from repro.experiments.store import semantic_record_dict

    expected = state["expected"] if expected is None else expected
    units = state["units"]
    errors = []
    first = obs["records"][:len(units)]
    for unit, record in zip(units, first):
        app, det, flags, _ = unit
        if not flags:
            if not record.verified or record.unique_races:
                errors.append(f"{unit}: race-free unit verified="
                              f"{record.verified} races={record.unique_races}")
        elif det == "none":
            if record.unique_races:
                errors.append(f"{unit}: races reported with detection off")
        elif not expected[(app, flags[0])] & record.race_types:
            want = sorted(t.value for t in expected[(app, flags[0])])
            got = sorted(t.value for t in record.race_types)
            errors.append(f"{unit}: Table VI flag not detected "
                          f"(want one of {want}, got {got})")
    # later passes must reproduce the first bit for bit
    reference = [semantic_record_dict(r) for r in first]
    for index, record in enumerate(obs["records"][len(units):]):
        if semantic_record_dict(record) != reference[index % len(units)]:
            errors.append(f"pass {index // len(units) + 2} unit "
                          f"{units[index % len(units)]} differs from pass 1")
    return errors


def digest(state, obs):
    from repro.experiments.store import semantic_record_dict

    d = Digest()
    for unit, record, launches in zip(state["units"], obs["records"],
                                      obs["launches"]):
        d.add([list(unit), semantic_record_dict(record)])
        d.add_launches(launches)
    return d.hexdigest()


def end_to_end(state, obs):
    overhead = sim_overhead(
        (app, det, record.cycles)
        for (app, det, flags, _), record in zip(state["units"],
                                                obs["records"])
        if not flags)
    times = obs["times"]
    per_pass = len(state["units"])
    whole = whole_passes(times, per_pass)
    return {
        "ops_per_s": metric(pass_rate(times, per_pass), "1/s"),
        "op_s_p50": metric(percentile(whole, 50), "s"),
        "op_s_tail": metric(percentile(whole, TAIL_PERCENTILE), "s"),
        "scord_sim_overhead": metric(overhead, "x"),
    }

