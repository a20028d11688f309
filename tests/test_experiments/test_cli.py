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


class TestDump:
    def test_dump_writes_records(self, tmp_path, capsys):
        path = tmp_path / "records.json"
        # fig8 on its own is the cheapest simulating exhibit... still
        # heavy; use table2 (no sims) to prove the dump path, then check
        # the file is valid JSON (possibly empty list).
        assert main(["table2", "--quiet", "--dump", str(path)]) == 0
        records = json.loads(path.read_text())
        assert isinstance(records, list)


class TestResilienceFlags:
    def test_resume_requires_store(self, capsys):
        with pytest.raises(SystemExit):
            main(["table2", "--quiet", "--resume"])
        assert "--resume requires --store" in capsys.readouterr().err

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
