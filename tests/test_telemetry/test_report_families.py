"""Dashboard rendering of the observability metric families."""

from repro.telemetry.report import family_counters, render_dashboard


METRICS = {
    "engine.instructions": 2_000_000.0,
    "flight.events.recorded": 120.0,
    "flight.events.dropped": 8.0,
    "flight.units": 3.0,
    "forensics.bundles": 5.0,
    "fuzz.programs": 40.0,
    "fuzzy.not_this_family": 1.0,
}


class TestFamilyCounters:
    def test_prefix_and_exact_match_only(self):
        lines = family_counters(METRICS, "fuzz")
        assert len(lines) == 1
        assert "fuzz.programs" in lines[0]
        assert not any("fuzzy" in line for line in lines)

    def test_unknown_family_is_empty(self):
        assert family_counters(METRICS, "nosuch") == []


class TestDashboardBlocks:
    def test_family_blocks_rendered(self):
        text = render_dashboard(metrics={"metrics": METRICS})
        assert "flight recorder (flight.*):" in text
        assert "race forensics (forensics.*):" in text
        assert "fuzz campaign (fuzz.*):" in text
        assert "flight.events.recorded" in text

    def test_absent_families_render_no_block(self):
        text = render_dashboard(
            metrics={"metrics": {"engine.instructions": 1.0}}
        )
        assert "flight recorder" not in text

    def test_manifest_forensics_and_pool_sections(self):
        manifest = {
            "ok": True,
            "counts": {"unique_simulations": 2},
            "forensics": {
                "dir": "/tmp/bundles", "flight_mode": "ring",
                "units_captured": 2, "bundles": 3, "rule_agreement": 3,
                "units_by_race_type": {"lock": 1, "scoped-atomic": 1},
                "units": [],
            },
            "pool": {
                "per_worker": {
                    "0": {"units_served": 5, "heartbeats_seen": 2,
                          "lifetime_seconds": 1.5, "alive": False},
                },
            },
        }
        text = render_dashboard(manifest=manifest)
        assert "forensics (from manifest):" in text
        assert "2 unit(s) captured (ring mode)" in text
        assert "scoped-atomic" in text
        assert "bundles under /tmp/bundles" in text
        assert "pool workers:" in text
        assert "worker 0: 5 unit(s)" in text
        assert "(retired)" in text


class TestOnePhaseTable:
    MANIFEST = {
        "ok": True,
        "profile": {"phases": {
            "exp.render.fig8": {"seconds": 2.5, "calls": 1},
            "engine.launch": {"seconds": 2.0, "calls": 54, "ops": 1000,
                              "ops_per_sec": 500.0},
        }},
    }
    TRACE = {"traceEvents": [
        {"ph": "X", "pid": 1, "tid": 0, "name": "exhibit:fig8",
         "ts": 0.0, "dur": 2.5e6},
    ]}

    def test_manifest_phases_without_a_trace(self):
        text = render_dashboard(manifest=self.MANIFEST)
        assert text.count("phase breakdown") == 1
        assert "phase breakdown (from manifest):" in text
        assert "500 ops/s" in text

    def test_trace_phases_replace_the_manifest_table(self):
        text = render_dashboard(trace=self.TRACE, manifest=self.MANIFEST)
        assert text.count("phase breakdown") == 1
        assert "phase breakdown (wall-clock spans):" in text
        assert "exhibit:fig8" in text
        assert "engine.launch" not in text
