"""The memoizing experiment runner."""

import itertools

from repro.experiments.runner import (
    DETECTORS,
    MEMORY_PRESETS,
    Runner,
    gpu_config_for,
)
from repro.experiments.store import run_key
from repro.scor.apps.reduction import ReductionApp


class TestRunner:
    def test_memoization(self):
        runner = Runner(verbose=False)
        first = runner.run(ReductionApp, detector="scord")
        second = runner.run(ReductionApp, detector="scord")
        assert first is second
        assert runner.runs_done() == 1

    def test_distinct_configs_are_distinct_runs(self):
        runner = Runner(verbose=False)
        runner.run(ReductionApp, detector="scord")
        runner.run(ReductionApp, detector="none")
        runner.run(ReductionApp, detector="scord", races=("block_fence",))
        assert runner.runs_done() == 3

    def test_record_fields(self):
        runner = Runner(verbose=False)
        record = runner.run(ReductionApp, detector="scord")
        assert record.app == "RED"
        assert record.cycles > 0
        assert record.verified
        assert record.unique_races == 0
        assert record.dram_total == record.dram_data + record.dram_metadata

    def test_racey_run_reports_races(self):
        runner = Runner(verbose=False)
        record = runner.run(
            ReductionApp, detector="scord", races=("block_fence",)
        )
        assert record.unique_races >= 1


class TestMemoizationKeys:
    """The cache key must separate every axis the evaluation varies."""

    def test_full_config_grid_never_collides(self):
        races_axis = ((), ("block_fence",), ("block_fence", "scoped_atomic"))
        keys = {
            run_key(app, detector, memory, races)
            for app, detector, memory, races in itertools.product(
                ("RED", "MM"), DETECTORS, MEMORY_PRESETS, races_axis
            )
        }
        assert len(keys) == 2 * len(DETECTORS) * len(MEMORY_PRESETS) * 3

    def test_distinct_detectors_do_not_collide(self):
        runner = Runner(verbose=False)
        base = runner.run(ReductionApp, detector="base")
        scord = runner.run(ReductionApp, detector="scord")
        assert base is not scord
        assert runner.runs_done() == 2

    def test_distinct_memory_presets_do_not_collide(self):
        runner = Runner(verbose=False)
        low = runner.run(ReductionApp, detector="none", memory="low")
        high = runner.run(ReductionApp, detector="none", memory="high")
        assert low is not high
        assert runner.runs_done() == 2

    def test_race_sets_compare_unordered(self):
        runner = Runner(verbose=False)
        a = runner.run(ReductionApp, detector="scord",
                       races=("block_fence", "block_count"))
        b = runner.run(ReductionApp, detector="scord",
                       races=("block_count", "block_fence"))
        assert a is b
        assert runner.runs_done() == 1

    def test_verbose_flag_is_not_part_of_the_key(self):
        """Flipping verbosity must still hit the cache (same key)."""
        runner = Runner(verbose=False)
        first = runner.run(ReductionApp, detector="none")
        runner.verbose = True
        second = runner.run(ReductionApp, detector="none")
        assert first is second
        assert runner.fresh_runs == 1


class TestConfigurations:
    def test_detector_labels_cover_the_evaluation(self):
        for label in ("none", "base", "base8", "base16", "scord",
                      "scord-nolhd", "scord-nonoc", "scord-nomd"):
            assert label in DETECTORS

    def test_memory_presets_scale_l2(self):
        low = gpu_config_for("low")
        default = gpu_config_for("default")
        high = gpu_config_for("high")
        assert low.l2_size_bytes < default.l2_size_bytes < high.l2_size_bytes


def test_a_unit_span_has_one_name_in_process_and_on_the_scheduler():
    """``--jobs 0`` and ``--jobs N`` traces name a unit alike."""
    from repro.experiments.campaign import RunSpec
    from repro.experiments.parallel import UnitScheduler
    from repro.telemetry import Telemetry, TraceConfig

    spec = RunSpec("RED", "none", races=("block_fence",), seed=3)
    in_process = Telemetry(TraceConfig())
    record = Runner(verbose=False, telemetry=in_process).run(
        ReductionApp, detector=spec.detector, races=spec.races,
        seed=spec.seed,
    )

    class Executor:
        def execute(self, _spec):
            return record

    pooled = Telemetry(TraceConfig())
    with UnitScheduler(Executor(), telemetry=pooled) as scheduler:
        scheduler.execute(spec)

    def unit_spans(telemetry):
        return [
            event["name"] for event in telemetry.tracer.events()
            if event["ph"] == "X" and event["name"].startswith("unit:")
        ]

    assert unit_spans(in_process) == unit_spans(pooled) == [
        f"unit:{spec.describe()}"
    ]
