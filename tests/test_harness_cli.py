"""Tests for the command-line launcher."""

import json

import pytest

from repro.harness.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "steady"])
        assert args.n == 16
        assert args.deadline == 128

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nonexistent"])

    @pytest.mark.parametrize("tau", ["0", "-3"])
    @pytest.mark.parametrize(
        "command",
        [
            ["run", "steady"],
            ["trace", "steady"],
            ["sweep", "steady"],
            ["profile-sweep", "steady"],
            ["net", "verify"],
            ["partitions"],
            ["bounds"],
        ],
        ids=lambda command: command[0],
    )
    def test_tau_below_one_is_a_usage_error(self, command, tau, capsys):
        with pytest.raises(SystemExit) as info:
            main([*command, "--tau", tau])
        assert info.value.code == 2
        assert "--tau: must be >= 1" in capsys.readouterr().err


class TestCommands:
    def test_scenarios_lists(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "steady" in out and "proxy-killer" in out

    def test_bounds(self, capsys):
        assert main(["bounds", "-n", "32", "--dmin", "64"]) == 0
        out = capsys.readouterr().out
        assert "Thm 11" in out and "Thm 1" in out

    def test_partitions_base(self, capsys):
        assert main(["partitions", "-n", "8"]) == 0
        out = capsys.readouterr().out
        assert "3 partitions of 2 groups" in out

    def test_partitions_collusion(self, capsys):
        assert main(["partitions", "-n", "8", "--tau", "2"]) == 0
        out = capsys.readouterr().out
        assert "3 groups" in out

    def test_run_steady_smoke(self, capsys):
        code = main(
            [
                "run",
                "steady",
                "-n",
                "8",
                "--rounds",
                "260",
                "--deadline",
                "64",
                "--seed",
                "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Quality of Delivery" in out
        assert "satisfied" in out

    def test_run_json_output(self, capsys):
        code = main(
            [
                "run",
                "steady",
                "-n",
                "8",
                "--rounds",
                "200",
                "--deadline",
                "64",
                "--json",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["qod"]["satisfied"] is True

    def test_run_theorem1(self, capsys):
        code = main(
            [
                "run",
                "theorem1",
                "-n",
                "8",
                "--rounds",
                "200",
                "--deadline",
                "64",
            ]
        )
        assert code == 0


class TestScenarioListing:
    def test_lists_builder_kwargs(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "kwargs" in out
        assert "deadline=128" in out  # defaults are rendered
        assert "collusion" in out  # registry exposes the Section-6 variant
        assert "scripted-burst" in out


class TestMultiSeedRun:
    def test_run_seeds_aggregates(self, capsys):
        code = main(
            [
                "run",
                "steady",
                "-n",
                "8",
                "--rounds",
                "200",
                "--deadline",
                "64",
                "--seeds",
                "0",
                "1",
                "--jobs",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "across 2 seeds" in out
        assert "peak" in out

    def test_run_seeds_json(self, capsys):
        code = main(
            [
                "run",
                "steady",
                "-n",
                "8",
                "--rounds",
                "200",
                "--deadline",
                "64",
                "--seeds",
                "0",
                "1",
                "--json",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        records = json.loads(out)
        assert len(records) == 2
        assert records[0]["qod_satisfied"] is True
        assert records[0]["seed"] == 0


class TestSweepCommand:
    def test_sweep_smoke_with_artifacts(self, tmp_path, capsys):
        out_dir = str(tmp_path / "artifacts")
        code = main(
            [
                "sweep",
                "steady",
                "-n",
                "8",
                "--deadline",
                "64",
                "--rounds",
                "200",
                "--seeds",
                "1",
                "--jobs",
                "1",
                "--lean",
                "--out",
                out_dir,
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "peak mean" in captured.out
        artifact = tmp_path / "artifacts" / "BENCH_steady_sweep.json"
        assert artifact.exists()
        payload = json.loads(artifact.read_text())
        assert payload["executed_tasks"] == 1
        assert payload["cells"][0]["qod_satisfied"] is True
        assert (tmp_path / "artifacts" / "steady_sweep.txt").exists()
        assert (tmp_path / "artifacts" / "cache").is_dir()

    def test_sweep_resume_skips_cached_cells(self, tmp_path, capsys):
        out_dir = str(tmp_path / "artifacts")
        argv = [
            "sweep",
            "steady",
            "-n",
            "8",
            "--deadline",
            "64",
            "--rounds",
            "200",
            "--seeds",
            "1",
            "--jobs",
            "1",
            "--lean",
            "--out",
            out_dir,
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 0
        capsys.readouterr()
        payload = json.loads(
            (tmp_path / "artifacts" / "BENCH_steady_sweep.json").read_text()
        )
        assert payload["executed_tasks"] == 0
        assert payload["cached_tasks"] == 1

    def test_resume_requires_out(self, capsys):
        code = main(["sweep", "steady", "--resume"])
        assert code == 2

    def test_sweep_payload_carries_exec_profile(self, tmp_path, capsys):
        out_dir = str(tmp_path / "artifacts")
        code = main(
            [
                "sweep",
                "steady",
                "-n",
                "8",
                "--deadline",
                "64",
                "--rounds",
                "200",
                "--seeds",
                "1",
                "--jobs",
                "1",
                "--lean",
                "--metrics",
                "--out",
                out_dir,
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "Telemetry registry" in captured.out
        assert "exec.task_seconds" in captured.out
        payload = json.loads(
            (tmp_path / "artifacts" / "BENCH_steady_sweep.json").read_text()
        )
        profile = payload["profile"]
        assert profile["tasks"] == 1
        assert profile["executed"] == 1
        assert profile["task_seconds_total"] > 0
        assert profile["workers"] >= 1


class TestMetricsFlag:
    def test_run_metrics_renders_registry(self, capsys):
        code = main(
            [
                "run",
                "steady",
                "-n",
                "8",
                "--rounds",
                "200",
                "--deadline",
                "64",
                "--metrics",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Telemetry registry" in out
        assert "rumor.delivered" in out
        assert "gossip.injected" in out

    def test_run_metrics_json_embeds_dump(self, capsys):
        code = main(
            [
                "run",
                "steady",
                "-n",
                "8",
                "--rounds",
                "200",
                "--deadline",
                "64",
                "--metrics",
                "--json",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        names = {entry["name"] for entry in payload["metrics"]}
        assert "rumor.delivered" in names


class TestTraceCommand:
    def test_trace_writes_parseable_jsonl(self, tmp_path, capsys):
        out_path = tmp_path / "events.jsonl"
        code = main(
            [
                "trace",
                "steady",
                "-n",
                "8",
                "--rounds",
                "200",
                "--deadline",
                "64",
                "--lean",
                "--metrics",
                "--out",
                str(out_path),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "timeline of rumor" in captured.out
        assert "Telemetry registry" in captured.out
        lines = out_path.read_text().splitlines()
        assert lines
        kinds = set()
        for line in lines:
            event = json.loads(line)
            assert "kind" in event and "round" in event
            kinds.add(event["kind"])
        assert {"rumor_inject", "rumor_deliver", "rumor_lifecycle"} <= kinds
        # At least one exported lifecycle is complete end to end.
        lifecycles = [
            json.loads(line)
            for line in lines
            if json.loads(line)["kind"] == "rumor_lifecycle"
        ]
        assert any(record["complete"] for record in lifecycles)

    def test_trace_sharded_backend(self, tmp_path, capsys):
        out_path = tmp_path / "events.jsonl"
        code = main(
            [
                "trace",
                "steady",
                "-n",
                "8",
                "--rounds",
                "24",
                "--deadline",
                "16",
                "--lean",
                "--backend",
                "sharded",
                "--workers",
                "2",
                "--out",
                str(out_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        # The report names the backend it traced.
        assert "[sharded backend]" in out
        lines = out_path.read_text().splitlines()
        assert lines
        events = [json.loads(line) for line in lines]
        # Every live protocol event carries its shard's worker label;
        # lifecycle records are coordinator-side reconstructions.
        live = [e for e in events if e["kind"] != "rumor_lifecycle"]
        assert live
        assert all("worker" in event for event in live)
        assert {e["kind"] for e in events} >= {"rumor_inject", "rumor_deliver"}

    def test_trace_replays_requested_rumor(self, tmp_path, capsys):
        code = main(
            [
                "trace",
                "steady",
                "-n",
                "8",
                "--rounds",
                "200",
                "--deadline",
                "64",
                "--lean",
                "--rumor",
                "r0:0",
                "--out",
                str(tmp_path / "events.jsonl"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "timeline of rumor r0:0" in out


class TestProfileSweepCommand:
    def test_profile_sweep_smoke(self, tmp_path, capsys):
        out_dir = str(tmp_path / "artifacts")
        code = main(
            [
                "profile-sweep",
                "steady",
                "-n",
                "8",
                "--deadline",
                "64",
                "--rounds",
                "200",
                "--seeds",
                "1",
                "--jobs",
                "1",
                "--lean",
                "--out",
                out_dir,
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "Exec-pool profile" in captured.out
        assert "wall s" in captured.out
        payload = json.loads(
            (tmp_path / "artifacts" / "BENCH_steady_profile.json").read_text()
        )
        assert payload["profile"]["tasks"] == 1
        assert payload["profile"]["task_seconds_total"] > 0
        assert payload["speedup"] >= 0

    def test_profile_sweep_json(self, capsys):
        code = main(
            [
                "profile-sweep",
                "steady",
                "-n",
                "8",
                "--deadline",
                "64",
                "--rounds",
                "200",
                "--seeds",
                "1",
                "--jobs",
                "1",
                "--lean",
                "--json",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["profile"]["executed"] == 1

    def test_profile_resume_requires_out(self, capsys):
        code = main(["profile-sweep", "steady", "--resume"])
        assert code == 2


class TestLoadSoak:
    def test_smoke_with_artifacts(self, tmp_path, capsys):
        out_dir = str(tmp_path / "artifacts")
        code = main(
            [
                "load-soak",
                "-n",
                "16",
                "--rates",
                "1",
                "--rounds",
                "200",
                "--seeds",
                "1",
                "--jobs",
                "1",
                "--out",
                out_dir,
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "load soak" in captured.out
        assert "saturation knees" in captured.out
        payload = json.loads(
            (tmp_path / "artifacts" / "BENCH_e20_open_workload.json").read_text()
        )
        assert payload["scenario"] == "open"
        assert payload["all_clean"] and payload["all_shed_leak_free"]
        assert payload["cells"][0]["offered"] > 0
        assert payload["knees"]
        assert (tmp_path / "artifacts" / "load_soak.txt").exists()

    def test_json_output(self, capsys):
        code = main(
            [
                "load-soak",
                "-n",
                "16",
                "--rates",
                "1",
                "--rounds",
                "200",
                "--seeds",
                "1",
                "--jobs",
                "1",
                "--json",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["total_offered"] > 0
        assert payload["profile"]["tasks"] == 1

    def test_resume_requires_out(self, capsys):
        code = main(["load-soak", "--resume"])
        assert code == 2


class TestPathContract:
    """``net verify`` and the execution paths' scope refusals."""

    NET_VERIFY = [
        "net", "verify", "--scenario", "steady", "-n", "8", "--rounds", "24",
        "--deadline", "16", "--lean", "--workers", "2",
    ]

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "churn", "-n", "8", "--rounds", "16", "--engine", "array"],
            [
                "run", "steady", "-n", "8", "--rounds", "16", "--engine",
                "array", "--metrics",
            ],
            [
                "load-soak", "-n", "8", "--rounds", "16", "--rates", "1",
                "--engines", "array", "--presets", "hardened", "--seeds", "1",
                "--jobs", "1",
            ],
            [
                "net", "verify", "--scenario", "proxy-killer", "-n", "8",
                "--rounds", "16", "--deadline", "16", "--lean",
            ],
        ],
        ids=["array-churn", "array-metrics", "array-load-soak", "sharded-mid-round"],
    )
    def test_a_refused_scenario_is_a_usage_error(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "use the object engine" in err or "backend='inproc'" in err

    def test_net_verify_same_run(self, capsys):
        assert main(self.NET_VERIFY + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["digest_match"] is True
        assert payload["inproc_digest"] == payload["sharded_digest"]
        assert payload["failures"] == []
        assert payload["net"]["cross_messages"] > 0

    def test_net_verify_divergent_run_exits_one(self, monkeypatch, capsys):
        import repro.harness.parity as parity

        real = parity.run_congos_scenario

        def divergent(scenario):
            result = real(scenario)
            if scenario.backend == "sharded":
                result.delivery.deliveries.popitem()
            return result

        monkeypatch.setattr(parity, "run_congos_scenario", divergent)
        assert main(self.NET_VERIFY) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[1].strip() for line in lines
                if line.startswith("same run")] == ["NO"]
        assert any(
            line.startswith("failure") and "pair sets differ" in line
            for line in lines
        )
