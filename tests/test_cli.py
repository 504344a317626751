"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main


class TestCli:
    def test_reproduce_prints_tables(self, capsys):
        assert main(["reproduce"]) == 0
        out = capsys.readouterr().out
        assert "[Table I]" in out
        assert "[Table VI]" in out
        assert "0.99707" in out

    def test_designs_prints_regions(self, capsys):
        assert main(["designs"]) == 0
        out = capsys.readouterr().out
        assert "Eq.3 region 1: 1 DNS + 1 WEB + 2 APP + 1 DB" in out
        assert "Eq.4 region 2: 2 DNS + 1 WEB + 1 APP + 1 DB" in out

    def test_bundle_writes_artifacts(self, tmp_path, capsys):
        assert main(["bundle", "--out", str(tmp_path / "artifacts")]) == 0
        out = capsys.readouterr().out
        assert "table6_coa.txt" in out
        assert (tmp_path / "artifacts" / "design_selections.txt").exists()

    def test_sweep_json_schema(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--roles",
                    "dns,web",
                    "--max-replicas",
                    "2",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["roles"] == ["dns", "web"]
        assert payload["max_replicas"] == 2
        assert payload["executor"] == "serial"
        assert payload["design_count"] == 4
        assert len(payload["designs"]) == 4
        snapshot_keys = {"AIM", "ASP", "NoEV", "NoAP", "NoEP", "COA"}
        for design in payload["designs"]:
            assert set(design) == {
                "label",
                "counts",
                "total_servers",
                "before",
                "after",
                "pareto",
            }
            assert set(design["before"]) == snapshot_keys
            assert set(design["after"]) == snapshot_keys
            assert design["total_servers"] == sum(design["counts"].values())
            assert 0.0 < design["after"]["COA"] <= 1.0
            assert isinstance(design["pareto"], bool)
        assert any(design["pareto"] for design in payload["designs"])

    def test_sweep_table_output(self, capsys):
        assert main(["sweep", "--roles", "dns,web", "--max-replicas", "2"]) == 0
        out = capsys.readouterr().out
        assert "COA" in out
        assert "Pareto front (after patch):" in out
        assert "2 DNS + 2 WEB" in out

    def test_sweep_max_total_caps_space(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--roles",
                    "dns,web",
                    "--max-replicas",
                    "3",
                    "--max-total",
                    "4",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["design_count"] == 6
        assert all(d["total_servers"] <= 4 for d in payload["designs"])

    def test_sweep_variants_json_schema(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--variants",
                    "--roles",
                    "web,db",
                    "--max-replicas",
                    "2",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["variants"] is True
        # 5 web-tier x 5 db-tier variant assignments
        assert payload["design_count"] == 25
        for design in payload["designs"]:
            assert set(design) == {
                "label",
                "counts",
                "total_servers",
                "before",
                "after",
                "pareto",
                "variants",
            }
            assert design["total_servers"] == sum(design["counts"].values())
            assert design["total_servers"] == sum(
                count
                for variants in design["variants"].values()
                for count in variants.values()
            )
        labels = {design["label"] for design in payload["designs"]}
        assert "web[1 web_apache + 1 web_nginx] / db[1 db_mysql]" in labels

    def test_sweep_variants_table_output(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--variants",
                    "--roles",
                    "web",
                    "--max-replicas",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "web[1 web_apache + 1 web_nginx]" in out
        assert "Pareto front (after patch):" in out

    def test_sweep_variants_unknown_role(self, capsys):
        assert main(["sweep", "--variants", "--roles", "cache"]) == 2
        assert "no variant pool" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "timeline", "serve"])
    def test_thread_executor_is_gone(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--executor", "thread"])
        assert excinfo.value.code == 2
        # serve keeps --executor with one choice; sweep and timeline
        # have no such option.
        expected = (
            "invalid choice: 'thread'"
            if command == "serve"
            else "unrecognized arguments: --executor thread"
        )
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "timeline", "serve"])
    @pytest.mark.parametrize(
        "flags",
        [("--executor", "process"), ("--jobs", "2")],
        ids=["executor-process", "jobs"],
    )
    def test_process_pool_flags_are_gone(self, command, flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, *flags])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_serve_executor_serial_still_parses(self, monkeypatch):
        from repro.evaluation.service import EvaluationService

        ran = []
        monkeypatch.setattr(
            EvaluationService, "run", lambda self, **kwargs: ran.append(kwargs)
        )
        assert main(["serve", "--executor", "serial", "--port", "0"]) == 0
        assert ran == [{"host": "127.0.0.1", "port": 0}]

    def test_sweep_rejects_empty_roles(self, capsys):
        assert main(["sweep", "--roles", " , "]) == 2

    def test_unknown_command_exits_nonzero(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["nonsense"])
        assert excinfo.value.code != 0

    def test_no_command_exits_nonzero(self):
        with pytest.raises(SystemExit):
            main([])


class TestTimelineCli:
    def test_timeline_json_schema(self, capsys):
        assert (
            main(
                [
                    "timeline",
                    "--roles",
                    "dns,web",
                    "--max-replicas",
                    "2",
                    "--points",
                    "5",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["roles"] == ["dns", "web"]
        assert payload["design_count"] == 4
        assert payload["times"] == [0.0, 180.0, 360.0, 540.0, 720.0]
        metric_keys = {"AIM", "ASP", "NoEV", "NoAP", "NoEP"}
        for design in payload["designs"]:
            assert set(design) >= {
                "label",
                "counts",
                "total_servers",
                "mean_time_to_completion",
                "steady_coa",
                "min_coa",
                "coa",
                "completion_probability",
                "unpatched_fraction",
                "security",
            }
            assert len(design["coa"]) == 5
            assert design["coa"][0] == 1.0
            assert design["completion_probability"][0] == 0.0
            assert design["mean_time_to_completion"] > 0
            assert set(design["security"]) == metric_keys
            assert all(len(curve) == 5 for curve in design["security"].values())

    def test_timeline_table_output(self, capsys):
        assert (
            main(["timeline", "--roles", "dns,web", "--points", "4"]) == 0
        )
        out = capsys.readouterr().out
        assert "MTTPC (h)" in out
        assert "2 DNS + 2 WEB" in out
        assert "grid 0..720 h x 4 points" in out

    def test_timeline_explicit_times(self, capsys):
        assert (
            main(
                [
                    "timeline",
                    "--roles",
                    "dns",
                    "--times",
                    "0,24,720",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["times"] == [0.0, 24.0, 720.0]

    def test_timeline_variants(self, capsys):
        assert (
            main(
                [
                    "timeline",
                    "--variants",
                    "--roles",
                    "web",
                    "--max-replicas",
                    "1",
                    "--points",
                    "3",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["variants"] is True
        assert payload["design_count"] == 2
        assert all("variants" in design for design in payload["designs"])

    def test_timeline_negative_time_exits_2(self, capsys):
        assert main(["timeline", "--roles", "dns", "--times=-5,3"]) == 2
        assert "timeline failed" in capsys.readouterr().err

    def test_timeline_bad_grid_exits_2(self, capsys):
        assert main(["timeline", "--roles", "dns", "--points", "1"]) == 2
        assert main(["timeline", "--roles", "dns", "--times", "abc"]) == 2

    def test_timeline_empty_roles_exits_2(self, capsys):
        assert main(["timeline", "--roles", " , "]) == 2

    def test_timeline_unknown_variant_role_exits_2(self, capsys):
        assert main(["timeline", "--variants", "--roles", "nosuch"]) == 2
        assert "variant pool" in capsys.readouterr().err


class TestScaledAndMethodCli:
    def test_bad_method_exits_2(self, capsys):
        """Completion is closed-form: no command takes ``--method``."""
        for argv in (
            ["timeline", "--roles", "dns", "--method", "uniformisation"],
            [
                "shard",
                "--endpoints",
                "127.0.0.1:1",
                "--timeline",
                "--method",
                "uniformisation",
            ],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert "--method" in capsys.readouterr().err

    def test_scaled_timeline_json(self, capsys):
        assert (
            main(
                [
                    "timeline",
                    "--scaled",
                    "2x3",
                    "--times",
                    "0,24,720",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["roles"] == ["tier01", "tier02", "tier03"]
        assert payload["design_count"] == 1
        design = payload["designs"][0]
        assert design["counts"] == {"tier01": 2, "tier02": 2, "tier03": 2}
        assert design["coa"][0] == 1.0

    def test_scaled_sweep_table(self, capsys):
        assert main(["sweep", "--scaled", "2x2"]) == 0
        out = capsys.readouterr().out
        assert "TIER01" in out

    def test_scaled_rejects_variants(self, capsys):
        assert (
            main(["timeline", "--scaled", "2x2", "--variants", "--points", "3"])
            == 2
        )
        assert "mutually exclusive" in capsys.readouterr().err

    def test_bad_scaled_spec_exits_2(self, capsys):
        # 100000x62 has 10^310 attack paths, past the float range.
        for spec in ("lots", "100000x62"):
            assert main(["timeline", "--scaled", spec]) == 2
            assert "HOSTSxTIERS" in capsys.readouterr().err

    def test_over_cap_scaled_tiers_exit_2(self, capsys):
        # One tier past MAX_SCALED_TIERS is refused before it is built.
        for command in ("sweep", "timeline"):
            assert main([command, "--scaled", "1x1001"]) == 2
            assert "over the cap of 1000" in capsys.readouterr().err


class TestCampaignCli:
    BASE = ["timeline", "--roles", "dns,web", "--max-replicas", "1", "--points", "4"]

    def test_schema_version_and_campaign_metadata(self, capsys):
        assert main(self.BASE + ["--phases", "canary:0.1:48,fleet:1.0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 3
        assert payload["campaign"]["phases"][0] == {
            "name": "canary",
            "rate_multiplier": 0.1,
            "duration_hours": 48.0,
        }
        for design in payload["designs"]:
            assert design["phase_starts"] == [0.0, 48.0]

    def test_infinite_horizon_exits_2(self, capsys):
        assert main(["timeline", "--roles", "dns", "--horizon", "inf"]) == 2
        err = capsys.readouterr().err
        assert "timeline failed: horizon must be finite" in err

    def test_plain_timeline_has_null_campaign(self, capsys):
        assert main(self.BASE + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 3
        assert payload["campaign"] is None
        assert all("phase_starts" not in design for design in payload["designs"])

    def test_single_phase_campaign_matches_plain_curves(self, capsys):
        assert main(self.BASE + ["--json"]) == 0
        plain = json.loads(capsys.readouterr().out)
        assert main(self.BASE + ["--phases", "fleet:1.0", "--json"]) == 0
        staged = json.loads(capsys.readouterr().out)
        for a, b in zip(plain["designs"], staged["designs"]):
            b = dict(b)
            assert b.pop("phase_starts") == [0.0]
            assert a == b

    def test_campaign_json_file(self, tmp_path, capsys):
        spec = tmp_path / "campaign.json"
        spec.write_text(
            json.dumps(
                {
                    "name": "staged",
                    "phases": [
                        {
                            "name": "canary",
                            "rate_multiplier": 1.0,
                            "completion_fraction": 0.25,
                            "canary_hosts": 1,
                        },
                        {"name": "fleet", "rate_multiplier": 1.0},
                    ],
                }
            )
        )
        assert main(self.BASE + ["--campaign", str(spec), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["campaign"]["name"] == "staged"
        for design in payload["designs"]:
            starts = design["phase_starts"]
            assert starts[0] == 0.0 and starts[1] > 0.0

    def test_never_firing_trigger_serialises_null_start(self, capsys):
        assert main(
            self.BASE + ["--phases", "pause:0:50%,fleet:1.0", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        for design in payload["designs"]:
            assert design["phase_starts"] == [0.0, None]
            assert design["mean_time_to_completion"] is None

    def test_table_output_mentions_campaign(self, capsys):
        assert main(self.BASE + ["--phases", "canary:0.1:48,fleet:1.0"]) == 0
        out = capsys.readouterr().out
        assert "campaign" in out and "canary" in out

    def test_campaign_and_phases_mutually_exclusive(self, tmp_path, capsys):
        spec = tmp_path / "c.json"
        spec.write_text('{"name": "x", "phases": [{"name": "f", "rate_multiplier": 1}]}')
        assert (
            main(
                self.BASE
                + ["--campaign", str(spec), "--phases", "fleet:1.0"]
            )
            == 2
        )
        assert "mutually exclusive" in capsys.readouterr().err

    def test_bad_phase_spec_exits_2(self, capsys):
        assert main(self.BASE + ["--phases", "fleet:fast"]) == 2
        assert "timeline failed" in capsys.readouterr().err

    def test_missing_campaign_file_exits_2(self, capsys):
        assert main(self.BASE + ["--campaign", "/nonexistent/spec.json"]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestCacheCli:
    def test_sweep_cache_reuse_is_identical(self, tmp_path, capsys):
        cache = str(tmp_path / "cache.sqlite")
        args = ["sweep", "--roles", "dns,web", "--json", "--cache", cache]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_timeline_cache_reuse_is_identical(self, tmp_path, capsys):
        cache = str(tmp_path / "cache.sqlite")
        args = [
            "timeline",
            "--roles",
            "dns,web",
            "--points",
            "4",
            "--json",
            "--cache",
            cache,
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_bad_cache_path_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "no-such-dir" / "cache.sqlite")
        assert (
            main(["sweep", "--roles", "dns", "--cache", missing]) == 2
        )
        assert "sweep failed" in capsys.readouterr().err


class TestSharedMemoryFlag:
    @pytest.mark.parametrize("command", ["sweep", "timeline", "serve"])
    @pytest.mark.parametrize("flag", ["--shared-memory", "--no-shared-memory"])
    def test_flag_is_gone(self, command, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_help_epilog_documents_sharing(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "closed-form COA" in out
        assert "solved once per distinct server stack" in out


class TestCacheSubcommand:
    def _seed_cache(self, tmp_path):
        path = str(tmp_path / "cache.sqlite")
        assert (
            main(
                [
                    "sweep",
                    "--roles",
                    "dns,web",
                    "--max-replicas",
                    "2",
                    "--cache",
                    path,
                ]
            )
            == 0
        )
        return path

    def test_stats_reports_entries(self, tmp_path, capsys):
        path = self._seed_cache(tmp_path)
        capsys.readouterr()
        assert main(["cache", "stats", "--cache", path]) == 0
        out = capsys.readouterr().out
        assert "4 entries" in out
        assert "evaluation" in out

    def test_stats_json(self, tmp_path, capsys):
        path = self._seed_cache(tmp_path)
        capsys.readouterr()
        assert main(["cache", "stats", "--cache", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 4
        assert payload["scopes"]["evaluation"]["entries"] == 4

    def test_trim_evicts(self, tmp_path, capsys):
        path = self._seed_cache(tmp_path)
        capsys.readouterr()
        assert (
            main(["cache", "trim", "--cache", path, "--max-entries", "1"]) == 0
        )
        assert "evicted 3" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 1

    def test_trim_without_bounds_exits_2(self, tmp_path, capsys):
        path = self._seed_cache(tmp_path)
        capsys.readouterr()
        assert main(["cache", "trim", "--cache", path]) == 2

    def test_purge_all(self, tmp_path, capsys):
        path = self._seed_cache(tmp_path)
        capsys.readouterr()
        assert main(["cache", "purge", "--cache", path]) == 0
        assert "purged 4" in capsys.readouterr().out

    def test_purge_by_scope(self, tmp_path, capsys):
        path = self._seed_cache(tmp_path)
        capsys.readouterr()
        assert (
            main(["cache", "purge", "--cache", path, "--scope", "timeline"])
            == 0
        )
        assert "purged 0" in capsys.readouterr().out

    def test_bad_cache_path_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "no-dir" / "cache.sqlite")
        assert main(["cache", "stats", "--cache", missing]) == 2
        assert "cache failed" in capsys.readouterr().err


class TestObservabilityCli:
    def test_sweep_trace_writes_chrome_trace(self, tmp_path, capsys):
        trace = tmp_path / "sweep-trace.json"
        assert (
            main(
                [
                    "sweep",
                    "--roles",
                    "dns",
                    "--max-replicas",
                    "1",
                    "--trace",
                    str(trace),
                ]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "trace: wrote" in err
        payload = json.loads(trace.read_text())
        events = payload["traceEvents"]
        names = {e["name"] for e in events if e.get("ph") == "X"}
        assert {"engine:evaluate", "harm:security"} <= names
        assert any(e["name"] == "process_name" for e in events)

    def test_trace_disabled_after_run(self, tmp_path):
        from repro.observability import tracing

        trace = tmp_path / "t.json"
        main(["sweep", "--roles", "dns", "--max-replicas", "1",
              "--trace", str(trace)])
        assert not tracing.is_enabled()
        assert tracing.events() == []

    def test_timeline_trace_writes_file(self, tmp_path, capsys):
        trace = tmp_path / "timeline-trace.json"
        assert (
            main(
                [
                    "timeline",
                    "--roles",
                    "dns",
                    "--max-replicas",
                    "1",
                    "--points",
                    "3",
                    "--trace",
                    str(trace),
                ]
            )
            == 0
        )
        names = {
            e["name"]
            for e in json.loads(trace.read_text())["traceEvents"]
            if e.get("ph") == "X"
        }
        assert "engine:timeline" in names

    def test_sweep_without_trace_leaves_no_file(self, tmp_path, capsys):
        assert main(["sweep", "--roles", "dns", "--max-replicas", "1"]) == 0
        assert "trace:" not in capsys.readouterr().err

    def test_verbose_flag_accepted_before_subcommand(self, capsys):
        import logging

        root = logging.getLogger()
        previous_level = root.level
        previous_handlers = list(root.handlers)
        try:
            assert main(["-v", "sweep", "--roles", "dns",
                         "--max-replicas", "1"]) == 0
        finally:
            root.setLevel(previous_level)
            root.handlers[:] = previous_handlers


class TestShardCli:
    def test_sharded_sweep_json_matches_single_process_sweep(self, capsys):
        from repro.evaluation.service import EvaluationService

        services = [
            EvaluationService(max_designs=64)
            for _ in range(2)
        ]
        try:
            for service in services:
                service.start_in_thread()
            endpoints = ",".join(
                f"{s.address[0]}:{s.address[1]}" for s in services
            )
            args = ["--roles", "dns,web,app", "--max-replicas", "3", "--json"]
            assert main(["sweep"] + args) == 0
            single = capsys.readouterr().out
            assert main(["shard", "--endpoints", endpoints] + args) == 0
            merged = capsys.readouterr().out
        finally:
            for service in services:
                service.close()
        # Byte-identical stdout: the CI shard smoke `cmp`s these files.
        assert merged == single

    def test_shard_summary_output(self, capsys):
        from repro.evaluation.service import EvaluationService

        with EvaluationService(max_designs=8) as service:
            service.start_in_thread()
            endpoint = f"{service.address[0]}:{service.address[1]}"
            assert (
                main(
                    [
                        "shard",
                        "--endpoints",
                        endpoint,
                        "--roles",
                        "dns",
                        "--max-replicas",
                        "2",
                    ]
                )
                == 0
            )
        out = capsys.readouterr().out
        assert "designs merged from 1 shard(s)" in out
        assert "Pareto front" in out

    def test_unreachable_endpoints_exit_2(self, capsys):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        assert (
            main(
                [
                    "shard",
                    "--endpoints",
                    f"127.0.0.1:{port}",
                    "--roles",
                    "dns",
                    "--timeout",
                    "2",
                ]
            )
            == 2
        )
        assert "shard failed" in capsys.readouterr().err

    @staticmethod
    def _shard_against_serial_service(*arguments: str) -> int:
        from repro.evaluation.service import EvaluationService

        with EvaluationService() as service:
            service.start_in_thread()
            endpoint = f"{service.address[0]}:{service.address[1]}"
            return main(["shard", "--endpoints", endpoint, *arguments])

    def test_error_naming_a_deadline_exits_2(self, capsys):
        # A 400 whose message merely mentions deadline_exceeded is a
        # domain error, not a blown deadline.
        code = self._shard_against_serial_service(
            "--roles", "deadline_exceeded", "--max-replicas", "1"
        )
        assert code == 2
        assert "invalid_request" in capsys.readouterr().err

    def test_expired_deadline_exits_3(self, capsys):
        code = self._shard_against_serial_service(
            "--roles", "dns,web,app,db", "--max-replicas", "4", "--deadline", "1"
        )
        assert code == 3
        assert "deadline_exceeded" in capsys.readouterr().err
