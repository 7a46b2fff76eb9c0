"""Tests for the perf subsystem: case registry, bench runner, scaling."""

from __future__ import annotations

import json

import pytest

from repro.harness.cli import build_parser, main
from repro.analysis.sweeps import sweep_specs
from repro.fastcore import numpy_available
from repro.perf.bench import profile_case, run_case, run_suite, suite_payload
from repro.perf.cases import (
    _REGISTRY,
    PerfCase,
    all_cases,
    case_keys,
    get_case,
    register_case,
)
from repro.perf.scaling import ENGINE_SCALING, _cliff_drop


def counting_case(key="t_counting", ops=3):
    calls = {"setups": 0, "runs": 0}

    def setup():
        calls["setups"] += 1

        def op():
            calls["runs"] += 1
            return calls["runs"]

        return op

    return PerfCase(key=key, title="counting", setup=setup, ops=ops), calls


class TestRegistry:
    def test_builtin_cases_registered_and_sorted(self):
        keys = case_keys()
        assert keys == sorted(keys)
        assert "e6_steady_small" in keys
        assert "network_route" in keys
        # The fan-out shaped gossip/audit cases the ledger's object-engine
        # work is read against.
        assert "gossip_receive_saturated" in keys
        assert "gossip_receive_converged" in keys
        assert "audit_batch_fanout" in keys
        # The chaos plane's per-message fate draw.
        assert "chaos_admit" in keys
        # The metadata auditor over one captured round of fan-outs, and
        # the array engine's lowering of a channel-round into them.
        assert "metadata_fanouts" in keys
        if numpy_available():
            assert "fastcore_lower_fanouts" in keys
            assert "fastcore_spread_channel" in keys

    def test_get_case_unknown_key_raises(self):
        with pytest.raises(KeyError, match="unknown perf case"):
            get_case("no_such_case")

    def test_duplicate_key_rejected(self):
        case, _ = counting_case(key="t_duplicate")
        register_case(case)
        try:
            with pytest.raises(ValueError, match="duplicate"):
                register_case(case)
        finally:
            del _REGISTRY["t_duplicate"]

    def test_tag_filter(self):
        micro = all_cases(tags=("micro",))
        assert micro
        assert all("micro" in case.tags for case in micro)
        assert not any("end_to_end" in case.tags for case in micro)


class TestBench:
    def test_fresh_setup_per_repeat_and_warmup(self):
        case, calls = counting_case()
        result = run_case(case, repeats=3, warmup=2)
        assert calls["setups"] == 5
        assert calls["runs"] == 5
        assert len(result.samples) == 3
        assert result.best <= result.mean
        assert result.best_per_op == result.best / 3

    def test_repeats_must_be_positive(self):
        case, _ = counting_case()
        with pytest.raises(ValueError):
            run_case(case, repeats=0)

    def test_profile_attaches_hotspots(self):
        result = run_case(
            get_case("clock_arithmetic"), repeats=1, warmup=0, profile=True
        )
        assert result.hotspots
        spot = result.hotspots[0]
        assert set(spot) == {"function", "calls", "tottime_s", "cumtime_s"}
        assert profile_case(get_case("clock_arithmetic"), top=3)

    def test_fanout_cases_run(self):
        keys = ["metadata_fanouts"]
        if numpy_available():
            keys.append("fastcore_lower_fanouts")
        for key in keys:
            result = run_case(get_case(key), repeats=1, warmup=0)
            assert result.best > 0, key

    @pytest.mark.skipif(not numpy_available(), reason="needs numpy>=2.0")
    def test_spread_case_sends_and_spreads(self):
        # Sends plus fresh holders: a case whose op returns 0 spread nothing.
        case = get_case("fastcore_spread_channel")
        assert case.setup()() > 0
        assert run_case(case, repeats=1, warmup=0).best > 0

    def test_audit_cases_judge_something(self):
        # An audit case whose op returns 0 (no rumor registered, no copy
        # across a border) times an auditor that does none of its work.
        for case in all_cases(tags=("audit",)):
            assert case.setup()() > 0, case.key

    def test_suite_payload_shape(self):
        case, _ = counting_case()
        payload = suite_payload(run_suite([case], repeats=2, warmup=0))
        assert len(payload["cases"]) == 1
        row = payload["cases"][0]
        assert row["key"] == "t_counting"
        assert row["repeats"] == 2
        assert payload["total_best_s"] == row["best_s"]


class TestScaling:
    def test_scaling_spec_is_stable(self):
        """The declared E17 cell is the spec the committed sidecar holds."""
        args = build_parser().parse_args(["perf", "scaling", "--ns", "16", "32"])
        (_, (spec16,)), (_, (spec32,)) = sweep_specs(
            ENGINE_SCALING.builder,
            ENGINE_SCALING.cells(args),
            seeds=[0],
            **ENGINE_SCALING.fixed(args),
        )
        assert spec16.key == (
            "5d03c7ed6cef44c7e25d28870ae5d8a9d87ca8409fde2f0e25d3523bf6a17ac1"
        )
        assert spec32.key != spec16.key

    def test_cliff_drop_finds_first_failure(self):
        cells = [
            {"cell": {"drop": 0.0}, "qod_satisfied": True, "delivery_rate": 1.0},
            {"cell": {"drop": 0.3}, "qod_satisfied": True, "delivery_rate": 0.99},
            {"cell": {"drop": 0.5}, "qod_satisfied": False, "delivery_rate": 0.7},
        ]
        assert _cliff_drop(cells, threshold=0.999) == 0.3
        assert _cliff_drop(cells, threshold=0.9) == 0.5
        assert _cliff_drop(cells[:1], threshold=0.999) is None

    def test_cliff_drop_handles_missing_delivery_rate(self):
        cells = [
            {"cell": {"drop": 0.2}, "qod_satisfied": True, "delivery_rate": None}
        ]
        assert _cliff_drop(cells, threshold=0.999) is None


class TestPerfCli:
    def test_micro_json(self, capsys):
        assert (
            main(
                [
                    "perf",
                    "micro",
                    "--case",
                    "clock_arithmetic",
                    "--repeats",
                    "1",
                    "--warmup",
                    "0",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["cases"][0]["key"] == "clock_arithmetic"

    def test_micro_table_with_profile(self, capsys):
        assert (
            main(
                [
                    "perf",
                    "micro",
                    "--case",
                    "clock_arithmetic",
                    "--repeats",
                    "1",
                    "--warmup",
                    "0",
                    "--profile",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "clock_arithmetic" in out
        assert "hotspots" in out

    def test_scaling_writes_bench_artifact(self, tmp_path, capsys):
        assert (
            main(
                [
                    "perf",
                    "scaling",
                    "--ns",
                    "16",
                    "--rounds",
                    "24",
                    "--seeds",
                    "2",
                    "--out",
                    str(tmp_path),
                    "--json",
                ]
            )
            == 0
        )
        artifact = tmp_path / "BENCH_e17_engine_scaling.json"
        assert artifact.exists()
        body = json.loads(artifact.read_text())
        assert body["name"] == "e17_engine_scaling"
        printed = json.loads(capsys.readouterr().out)
        assert [(run["n"], run["seed"]) for run in printed["runs"]] == [
            (16, 0),
            (16, 1),
        ]
        assert all(len(run["digest"]) == 64 for run in printed["runs"])
        # Wall-clock lives in its own section, read against the reference
        # row — here each row is its own.
        assert "wall_s" not in printed["runs"][0]
        assert [row["speedup"] for row in printed["timing"]] == [1.0, 1.0]
        assert all(row["wall_s"] > 0 for row in printed["timing"])
        # --jobs was not given: the declaration's one worker ran it here.
        assert body["profile"]["workers"] == 1

    def test_chaos_scaling_smoke(self, tmp_path, capsys):
        assert (
            main(
                [
                    "perf",
                    "chaos-scaling",
                    "--ns",
                    "8",
                    "--drop",
                    "0.0",
                    "--delay",
                    "0.1",
                    "--seeds",
                    "1",
                    "--rounds",
                    "40",
                    "--jobs",
                    "1",
                    "--out",
                    str(tmp_path),
                    "--json",
                ]
            )
            == 0
        )
        artifact = tmp_path / "BENCH_e17b_chaos_scaling.json"
        assert artifact.exists()
        printed = json.loads(capsys.readouterr().out)
        assert printed["per_n"][0]["n"] == 8
        assert "first_failing_drop" in printed["cliff"]

    def test_chaos_scaling_resume_needs_out(self, capsys):
        assert main(["perf", "chaos-scaling", "--resume"]) == 2
