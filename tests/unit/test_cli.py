"""Unit tests of the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_commands_exist(self):
        parser = build_parser()
        for argv in (
            ["tables"],
            ["figure", "fig3"],
            ["scenario", "4"],
            ["robustness"],
            ["techniques"],
            ["heuristics"],
        ):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_figure_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig9"])

    def test_scenario_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario", "5"])

    def test_seed_zero_accepted(self):
        args = build_parser().parse_args(["scenario", "4", "--seed", "0"])
        assert args.seed == 0

    def test_retired_profile_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--profile", "tables"])
        assert exc.value.code == 2
        assert "--profile" in capsys.readouterr().err


class TestCommands:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Table IV" in out
        assert "Table V" in out
        assert "74.5" in out  # paper phi_1

    def test_techniques(self, capsys):
        assert main(["techniques"]) == 0
        out = capsys.readouterr().out
        for name in ("STATIC", "FAC", "WF", "AWF-B", "AF"):
            assert name in out

    def test_heuristics(self, capsys):
        assert main(["heuristics"]) == 0
        out = capsys.readouterr().out
        assert "exhaustive-optimal" in out
        assert "genetic" in out

    def test_figure_quick(self, capsys):
        assert main(["figure", "fig4", "--replications", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out
        assert "STATIC" in out

    def test_scenario_quick(self, capsys):
        assert main(["scenario", "1", "--replications", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Scenario 1" in out
        assert "rho1" in out

    def test_robustness_quick(self, capsys):
        assert main(["robustness", "--replications", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Table VI" in out
        assert "paper" in out

    def test_robustness_chaos_mode(self, capsys):
        assert main(
            [
                "robustness", "--replications", "2", "--seed", "1",
                "--faults", "--fault-rate", "2e-4",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "fault-free baseline" in out
        assert "chaos impact" in out

    def test_scenario_with_faults(self, capsys):
        assert main(
            [
                "scenario", "1", "--replications", "2", "--seed", "1",
                "--faults",
            ]
        ) == 0
        assert "rho1" in capsys.readouterr().out

    def test_workers_auto_accepted(self, capsys):
        assert main(["--workers", "auto", "tables"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_workers_zero_accepted(self, capsys):
        assert main(["--workers", "0", "tables"]) == 0
        assert "Table I" in capsys.readouterr().out


class TestRecommendAndChart:
    def test_figure_chart(self, capsys):
        assert main(
            ["figure", "fig6", "--chart", "--replications", "2", "--seed", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "█" in out
        assert "Delta" in out

    def test_export_instance(self, capsys, tmp_path):
        target = tmp_path / "inst.json"
        assert main(["export", str(target)]) == 0
        from repro.io import load_instance

        system, batch, deadline = load_instance(target)
        assert deadline == 3250.0
        assert batch.names == ("app1", "app2", "app3")


class TestObservabilityFlags:
    def test_trace_writes_jsonl(self, capsys, tmp_path):
        import repro.obs as obs
        from repro.obs import read_trace

        path = tmp_path / "run.jsonl"
        assert main(
            ["--trace", str(path), "scenario", "1",
             "--replications", "1", "--seed", "1"]
        ) == 0
        assert not obs.obs_enabled()  # the CLI session was torn down
        out = capsys.readouterr().out
        assert f"wrote trace to {path}" in out
        records = read_trace(path)
        assert records[0]["type"] == "meta"
        names = {r["name"] for r in records if r["type"] == "span"}
        assert {"cdsf.run", "cdsf.stage_i", "cdsf.stage_ii"} <= names
        counters = {
            r["name"] for r in records if r["type"] == "counter"
        }
        assert "sim.apps" in counters

    def test_metrics_summary(self, capsys):
        assert main(
            ["--metrics", "robustness", "--replications", "1", "--seed", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "Observability: counters" in out
        assert "sim.apps" in out
        assert "Observability: histograms" in out

    def test_plain_run_leaves_obs_disabled(self, capsys):
        import repro.obs as obs

        assert main(["techniques"]) == 0
        assert not obs.obs_enabled()

    def test_log_level_flag(self, capsys):
        import logging

        from repro.obs import get_logger

        logger = get_logger()
        before = logger.handlers[:]
        try:
            assert main(["--log-level", "debug", "techniques"]) == 0
            assert logger.level == logging.DEBUG
        finally:
            for handler in logger.handlers[:]:
                if handler not in before:
                    logger.removeHandler(handler)


class TestRunStoreCommands:
    @pytest.fixture
    def recorded(self, tmp_path, capsys):
        """Two recorded scenario runs (fault-free and faulted) in one store."""
        base = tmp_path / "runs"
        for extra in ([], ["--faults", "--fault-rate", "3e-4"]):
            assert main(
                ["--run-dir", str(base), "scenario", "1",
                 "--replications", "1", "--seed", "1", *extra]
            ) == 0
        capsys.readouterr()
        from repro.obs import RunStore

        ids = RunStore(base).run_ids()
        assert len(ids) == 2
        return base, ids

    def test_run_dir_records_invocation(self, recorded, capsys):
        import repro.obs as obs

        base, ids = recorded
        assert not obs.obs_enabled()
        run = obs.RunStore(base).load(ids[0])
        assert run.manifest["command"] == "scenario"
        assert run.manifest["scenario"] == 1
        assert run.manifest["seed"] == 1
        assert run.manifest["exit_code"] == 0
        assert "scenario" in run.results()
        assert run.timelines(), "run dir should rebuild worker timelines"

    def test_env_var_enables_recording(self, tmp_path, capsys, monkeypatch):
        from repro.obs import ENV_RUN_DIR, RunStore

        base = tmp_path / "envruns"
        monkeypatch.setenv(ENV_RUN_DIR, str(base))
        assert main(["techniques"]) == 0
        out = capsys.readouterr().out
        assert "recorded run" in out
        assert len(RunStore(base).run_ids()) == 1

    def test_runs_lists_store(self, recorded, capsys):
        base, ids = recorded
        assert main(["--run-dir", str(base), "runs"]) == 0
        out = capsys.readouterr().out
        for rid in ids:
            assert rid in out
        assert "scenario" in out

    def test_runs_empty_store(self, tmp_path, capsys):
        assert main(["--run-dir", str(tmp_path / "none"), "runs"]) == 0
        assert "no recorded runs" in capsys.readouterr().out

    def test_runs_without_base_errors(self, capsys, monkeypatch):
        from repro.obs import ENV_RUN_DIR

        monkeypatch.delenv(ENV_RUN_DIR, raising=False)
        assert main(["runs"]) == 2
        assert "--run-dir" in capsys.readouterr().out

    def test_report_by_id_and_path(self, recorded, capsys):
        base, ids = recorded
        assert main(["--run-dir", str(base), "report", ids[0]]) == 0
        by_id = capsys.readouterr().out
        assert f"# repro run `{ids[0]}`" in by_id
        assert "## Worker timelines" in by_id
        assert main(["report", str(base / ids[0])]) == 0
        by_path = capsys.readouterr().out
        assert f"# repro run `{ids[0]}`" in by_path

    def test_report_output_and_chrome_trace(self, recorded, capsys, tmp_path):
        import json

        base, ids = recorded
        md = tmp_path / "report.md"
        chrome = tmp_path / "chrome.json"
        assert main(
            ["report", str(base / ids[0]),
             "-o", str(md), "--chrome-trace", str(chrome)]
        ) == 0
        out = capsys.readouterr().out
        assert str(md) in out
        assert "perfetto" in out.lower()
        assert md.read_text().startswith("# repro run")
        payload = json.loads(chrome.read_text())
        assert payload["traceEvents"]

    def test_report_unknown_run_errors(self, recorded, capsys):
        base, _ = recorded
        assert main(["--run-dir", str(base), "report", "nope"]) == 2
        assert "neither a run" in capsys.readouterr().out

    def test_compare_two_runs(self, recorded, capsys):
        base, ids = recorded
        assert main(["--run-dir", str(base), "compare", ids[0], ids[1]]) == 0
        out = capsys.readouterr().out
        assert f"# repro compare `{ids[0]}` vs `{ids[1]}`" in out
        assert "## Robustness" in out
        assert "## Largest counter deltas" in out

    def test_analysis_commands_are_not_recorded(self, recorded, capsys):
        """report/compare/runs read the store; they must not add runs."""
        from repro.obs import RunStore

        base, ids = recorded
        assert main(["--run-dir", str(base), "runs"]) == 0
        assert main(["--run-dir", str(base), "report", ids[0]]) == 0
        assert RunStore(base).run_ids() == ids

    def test_runs_format_json(self, recorded, capsys):
        import json

        base, ids = recorded
        assert main(["--run-dir", str(base), "runs", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["run_id"] for row in payload] == list(ids)
        assert all(row["command"] == "scenario" for row in payload)
        assert all(row["exit_code"] == 0 for row in payload)

    def test_runs_format_json_empty_store(self, tmp_path, capsys):
        import json

        assert main(
            ["--run-dir", str(tmp_path / "none"), "runs", "--format", "json"]
        ) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_manifest_env_fingerprint(self, recorded):
        from repro.obs import RunStore

        base, ids = recorded
        env = RunStore(base).load(ids[0]).manifest["env"]
        for key in ("python", "platform", "cpu_logical", "cpu_available"):
            assert key in env

    @pytest.mark.parametrize(
        ("flags", "env", "name"),
        [
            (["--workers", "junk"], {}, "--workers"),
            ([], {"REPRO_WORKERS": "junk"}, "REPRO_WORKERS"),
        ],
        ids=["--workers", "REPRO_WORKERS"],
    )
    def test_bad_setting_errors_before_recording(
        self, tmp_path, capsys, monkeypatch, flags, env, name
    ):
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        base = tmp_path / "runs"
        assert main(["--run-dir", str(base), *flags, "techniques"]) == 2
        out = capsys.readouterr().out
        assert out.startswith("error: ")
        assert name in out and "'junk'" in out
        assert not base.exists(), "a rejected setting left a run directory"

    @pytest.mark.parametrize(
        ("flags", "name"),
        [
            (["--replications", "0"], "--replications"),
            (["--faults", "--fault-rate", "-1"], "--fault-rate"),
            (["--seed", "-1"], "--seed"),
        ],
        ids=["--replications", "--fault-rate", "--seed"],
    )
    def test_out_of_range_flag_rejected_at_parse_time(
        self, tmp_path, capsys, flags, name
    ):
        base = tmp_path / "runs"
        with pytest.raises(SystemExit) as exc:
            main(["--run-dir", str(base), "scenario", "4", *flags])
        assert exc.value.code == 2
        assert f"argument {name}" in capsys.readouterr().err
        assert not base.exists(), "a rejected flag left a run directory"

    @pytest.mark.parametrize(
        "via_env", [False, True], ids=["--run-dir", "REPRO_RUN_DIR"]
    )
    def test_run_dir_naming_a_file_is_a_usage_error(
        self, tmp_path, capsys, monkeypatch, via_env
    ):
        afile = tmp_path / "afile"
        afile.write_text("not a directory\n")
        if via_env:
            monkeypatch.setenv("REPRO_RUN_DIR", str(afile))
            argv = ["techniques"]
        else:
            argv = ["--run-dir", str(afile), "techniques"]
        assert main(argv) == 2
        out = capsys.readouterr().out
        assert out.startswith("error: ") and out.count("\n") == 1
        assert str(afile) in out
        assert afile.read_text() == "not a directory\n"

    def test_run_dir_below_a_file_is_a_usage_error(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("not a directory\n")
        base = afile / "runs"
        assert main(["--run-dir", str(base), "techniques"]) == 2
        out = capsys.readouterr().out
        assert out.startswith("error: ") and out.count("\n") == 1
        assert str(base) in out
