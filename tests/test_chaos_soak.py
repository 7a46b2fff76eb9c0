"""Tests for the chaos soak harness: jobs-invariant determinism, the E15
``--deadline`` resolution, the fail-fast QoD planted violation, and
RunRecord faults.  (The CLI path and the sidecar's determinism are
covered for every experiment in test_harness_experiment.py.)"""

import json

import pytest

from repro.analysis.sweeps import sweep_congos, sweep_specs
from repro.audit.failfast import InvariantViolation
from repro.chaos.soak import CHAOS_SOAK, cell_spec, chaos_cells, soak_payload
from repro.exec.tasks import RunSpec, execute_spec
from repro.harness.cli import build_parser, main
from repro.harness.runner import run_congos_scenario
from repro.harness.scenarios import chaos_scenario

FIXED = {"n": 8, "rounds": 60, "deadline": 16}


class TestCells:
    def test_matrix_is_the_cartesian_product(self):
        cells = chaos_cells([0.0, 0.1], [0.0, 0.2])
        assert len(cells) == 4
        assert {"delay": 0.2, "drop": 0.1} in cells

    def test_cell_spec_merges_cell_over_fixed(self):
        spec = cell_spec(
            {"drop": 0.2}, {"drop": 0.1, "max_delay": 3, "rounds": 60}
        )
        assert spec.drop == 0.2
        assert spec.max_delay == 3  # fixed knob carried through

    def test_cell_spec_ignores_non_spec_kwargs(self):
        spec = cell_spec({"drop": 0.1}, {"n": 8, "hardened": True})
        assert spec.drop == 0.1


class TestSoakDeterminism:
    @pytest.fixture(scope="class")
    def cells(self):
        return chaos_cells([0.0, 0.1], [0.1])

    def test_payload_identical_at_any_jobs(self, cells):
        serial = sweep_congos("chaos", cells, seeds=(0, 1), jobs=1, **FIXED)
        pooled = sweep_congos("chaos", cells, seeds=(0, 1), jobs=2, **FIXED)
        assert soak_payload(serial, FIXED) == soak_payload(pooled, FIXED)

    def test_confidentiality_clean_across_matrix(self, cells):
        sweep = sweep_congos("chaos", cells, seeds=(0, 1), jobs=1, **FIXED)
        payload = soak_payload(sweep, FIXED)
        assert payload["all_clean"] is True
        # faults were actually injected in the non-null cells
        assert sum(payload["total_faults"].values()) > 0

    def test_intensity_recorded_per_cell(self, cells):
        sweep = sweep_congos("chaos", cells, seeds=(0,), jobs=1, **FIXED)
        assert soak_payload(sweep, FIXED)["cells"][0]["intensity"] == 0.1


class TestDeadlineFlag:
    """``--deadline`` unset means 64 for the oblivious matrix and the
    policy's own default under ``--policy``; an explicit value always
    reaches the builder (64 used to be mistaken for "unset")."""

    def kwargs(self, *argv):
        args = build_parser().parse_args(["chaos-soak", *argv])
        (_, (spec,)), *_ = sweep_specs(
            CHAOS_SOAK.builder(args),
            CHAOS_SOAK.cells(args),
            seeds=(0,),
            **CHAOS_SOAK.fixed(args),
        )
        return spec.builder, spec.kwargs

    def test_oblivious_default_is_64(self):
        builder, kwargs = self.kwargs()
        assert builder == "chaos" and kwargs["deadline"] == 64

    def test_policy_default_is_the_builders_own(self):
        builder, kwargs = self.kwargs("--policy", "deadline-chaser")
        assert builder == "targeted" and "deadline" not in kwargs

    @pytest.mark.parametrize("deadline", [64, 32])
    def test_explicit_value_reaches_the_policy_run(self, deadline):
        _, kwargs = self.kwargs(
            "--policy", "deadline-chaser", "--deadline", str(deadline)
        )
        assert kwargs["deadline"] == deadline


class TestTraceFlag:
    def test_worst_cell_trace_shows_the_injected_faults(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        code = main(
            [
                "chaos-soak", "-n", "8", "--rounds", "60", "--deadline", "16",
                "--drop", "0.0", "0.15", "--delay", "0.1", "--seeds", "1",
                "--jobs", "1", "--trace", str(trace),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trace of worst cell {'delay': 0.1, 'drop': 0.15}" in out
        assert "faults hit its messages" in out
        kinds = {json.loads(line)["kind"] for line in trace.open()}
        assert any(kind.startswith("fault_") for kind in kinds), kinds


class TestFailFastQoD:
    def test_planted_violation_is_caught(self):
        # Dropping 90% of all traffic must make some admissible pair miss
        # its deadline; with failfast="qod" the monitor raises mid-run
        # instead of letting the report surface it at the end.
        scenario = chaos_scenario(
            8, 60, seed=0, deadline=16, drop=0.9, failfast="qod"
        )
        with pytest.raises(InvariantViolation) as caught:
            run_congos_scenario(scenario)
        assert any(v.kind == "qod" for v in caught.value.violations)
        assert caught.value.round_no <= 60

    def test_failfast_names_exactly_the_reports_misses(self):
        # One verdict: the pairs the monitor raises on at round R are the
        # pairs the end-of-run report of the same (unmonitored) run calls
        # missed, among rumors whose deadline elapsed by R.  Churn makes
        # some pairs inadmissible, so admissibility is compared too.
        kwargs = dict(deadline=16, drop=0.3, delay=0.1, churn=0.02)
        with pytest.raises(InvariantViolation) as caught:
            run_congos_scenario(
                chaos_scenario(8, 120, seed=3, failfast="qod", **kwargs)
            )
        round_no = caught.value.round_no
        raised = {(v.rid, v.pid) for v in caught.value.violations}
        assert {v.kind for v in caught.value.violations} == {"qod"}
        result = run_congos_scenario(
            chaos_scenario(8, 120, seed=3, failfast=None, **kwargs)
        )
        reported = {
            (o.rid, o.pid)
            for o in result.qod.outcomes
            if o.admissible
            and not (o.delivered and o.on_time)
            and result.delivery.deadline_round(o.rid) <= round_no
        }
        assert raised and raised == reported

    def test_reliable_run_passes_qod_failfast(self):
        scenario = chaos_scenario(8, 120, seed=0, deadline=16, failfast="qod")
        result = run_congos_scenario(scenario)
        assert result.qod.satisfied


class TestRunRecordFaults:
    def test_chaos_record_carries_fault_counts(self):
        spec = RunSpec.make(
            "chaos", seed=0, drop=0.3, **FIXED
        )
        record = execute_spec(spec)
        assert record.faults["drop"] > 0
        round_tripped = type(record).from_dict(record.to_dict())
        assert round_tripped.faults == record.faults

    def test_reliable_record_has_empty_faults(self):
        spec = RunSpec.make("steady", seed=0, **FIXED)
        record = execute_spec(spec)
        assert record.faults == {}
