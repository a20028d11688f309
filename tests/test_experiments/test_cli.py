"""The scord-experiments CLI."""

import json

import pytest

from repro.experiments.cli import EXHIBITS, main


class TestArgs:
    def test_unknown_exhibit_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["not_an_exhibit"])

    def test_exhibit_list_is_complete(self):
        for name in ("table1", "table2", "table6", "table7", "table8",
                     "fig8", "fig9", "fig10", "fig11", "ablations",
                     "litmus"):
            assert name in EXHIBITS


class TestFastExhibits:
    def test_table2_and_table8(self, capsys):
        assert main(["table2", "table8", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "Table VIII" in out

    def test_litmus(self, capsys):
        assert main(["litmus", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "mp_device_fence" in out
        assert "VIOLATION" not in out


class TestResilienceFlags:
    @pytest.mark.parametrize("argv,message", [
        (["--timeout", "5"], "--timeout bounds pool units"),
        (["--chaos-kill-every", "2"], "--chaos-kill-every injects pool"),
        (["--jobs", "-1"], "--jobs must be >= 0"),
    ])
    def test_pool_flags_require_jobs(self, argv, message, capsys):
        """The in-process default (--jobs 0) has no pool to bound."""
        with pytest.raises(SystemExit) as excinfo:
            main(["table2", "--quiet"] + argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    def test_manifest_written_on_success(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        assert main(["table2", "--quiet", "--manifest", str(path)]) == 0
        manifest = json.loads(path.read_text())
        assert manifest["ok"] is True
        assert manifest["exhibits"] == {"table2": {"status": "ok"}}
        assert manifest["failed_runs"] == []
        assert manifest["counts"]["failed_runs"] == 0
        assert "schema" in manifest

    def test_failed_exhibit_reported_but_not_fatal(
        self, tmp_path, monkeypatch, capsys
    ):
        """One failing exhibit: structured stderr line, exit 1, others run."""
        import repro.experiments.cli as cli_module
        from repro.common.errors import SimulationError

        def boom(runner):
            raise SimulationError("synthetic failure")

        # _exhibit_runners resolves module globals at call time, so
        # patching the module attribute is enough.
        monkeypatch.setattr(cli_module, "_table2", boom)
        path = tmp_path / "manifest.json"
        assert main(
            ["table2", "table8", "--quiet", "--manifest", str(path)]
        ) == 1
        captured = capsys.readouterr()
        assert "[exhibit-failed] table2: simulation: synthetic failure" \
            in captured.err
        assert "[FAILURES: 1 exhibit(s), 0 run(s)]" in captured.err
        assert "Table VIII" in captured.out  # later exhibit still rendered
        manifest = json.loads(path.read_text())
        assert manifest["ok"] is False
        assert manifest["exhibits"]["table2"]["status"] == "failed"
        assert manifest["exhibits"]["table2"]["code"] == "simulation"
        assert manifest["exhibits"]["table8"]["status"] == "ok"


class TestCampaignMetrics:
    """``--jobs 0`` and ``--jobs N`` export one set of campaign numbers."""

    @pytest.fixture(scope="class")
    def exports(self, tmp_path_factory):
        from repro.experiments import fig8
        from repro.scor.apps.reduction import ReductionApp

        out = tmp_path_factory.mktemp("campaign-metrics")
        patch = pytest.MonkeyPatch()
        # a three-unit fig8: RED under none/base/scord
        patch.setattr(fig8, "ALL_APPS", [ReductionApp])
        exports = {}
        try:
            for jobs in ("0", "2"):
                prefix = out / f"jobs{jobs}"
                assert main([
                    "fig8", "--quiet", "--jobs", jobs,
                    "--metrics-out", f"{prefix}.prom",
                    "--manifest", f"{prefix}.json",
                ]) == 0
                exports[jobs] = (
                    json.loads(
                        (out / f"jobs{jobs}.prom.json").read_text()
                    )["metrics"],
                    json.loads((out / f"jobs{jobs}.json").read_text()),
                )
        finally:
            patch.undo()
        return exports

    @pytest.mark.parametrize("name", [
        "exp.units.total", "exp.units.run", "exp.sim.cycles",
        "exp.sim.dram.data", "exp.sim.dram.metadata",
    ])
    def test_pool_and_in_process_export_equal_totals(self, exports, name):
        in_process, _ = exports["0"]
        pool, _ = exports["2"]
        assert name in pool, sorted(pool)[:20]
        assert pool[name] == in_process[name]

    @pytest.mark.parametrize("jobs", ["0", "2"])
    def test_every_unit_is_timed_once(self, exports, jobs):
        metrics, manifest = exports[jobs]
        counts = manifest["counts"]
        timed = sum(
            value for name, value in metrics.items()
            if name.startswith("exp.unit.seconds{") and name.endswith(".count")
        )
        assert metrics["exp.units.total"] == 3
        assert timed == metrics["exp.units.total"]
        assert timed == counts["fresh_runs"] + counts["cached_runs"]

    @pytest.mark.parametrize("jobs", ["0", "2"])
    def test_manifest_profile_is_the_registry(self, exports, jobs):
        metrics, manifest = exports[jobs]
        profile = manifest["profile"]
        assert profile["phases"]["exp.render.fig8"]["calls"] == 1
        for source, entry in profile["unit_sources"].items():
            key = f'exp.unit.seconds{{source="{source}"}}'
            assert entry["units"] == metrics[key + ".count"]
            assert entry["total_seconds"] == round(metrics[key + ".sum"], 3)
        shards = profile.get("shards", {})
        assert bool(shards) == (jobs != "0")
        for shard, entry in shards.items():
            key = f'{{shard="{shard}"}}'
            assert entry["units"] == metrics["exp.shard.units" + key]
            assert entry["busy_seconds"] == round(
                metrics["exp.shard.busy_seconds" + key], 3
            )
