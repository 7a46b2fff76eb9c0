"""Tests for the direct-send soak harness (E16): matrix shape,
jobs-invariant determinism, the hardened-vs-default delivery story, and
stage attribution of the injected faults."""

import pytest

from repro.analysis.sweeps import sweep_congos
from repro.chaos.direct import direct_cells, direct_payload
from repro.exec.tasks import RunSpec, execute_spec

FIXED = {"n": 10, "rounds": 100, "deadline": 32}


class TestCells:
    def test_matrix_is_drop_times_mode(self):
        cells = direct_cells([0.0, 0.3])
        assert len(cells) == 4
        assert {"drop": 0.3, "hardened": True} in cells
        assert {"drop": 0.0, "hardened": False} in cells

    def test_custom_mode_axis(self):
        cells = direct_cells([0.1], hardened=(True,))
        assert cells == [{"drop": 0.1, "hardened": True}]


class TestSoak:
    @pytest.fixture(scope="class")
    def sweep(self):
        return sweep_congos(
            "direct", direct_cells([0.0, 0.3]), seeds=(0, 1), jobs=1, **FIXED
        )

    def test_payload_identical_at_any_jobs(self, sweep):
        pooled = sweep_congos(
            "direct", direct_cells([0.0, 0.3]), seeds=(0, 1), jobs=2, **FIXED
        )
        assert direct_payload(sweep, FIXED) == direct_payload(pooled, FIXED)

    def test_hardened_beats_default_under_loss(self, sweep):
        payload = direct_payload(sweep, FIXED)
        modes = payload["delivery_by_mode"]
        assert modes["hardened"] > modes["default"]
        lossy = {
            entry["cell"]["hardened"]: entry
            for entry in payload["cells"]
            if entry["cell"]["drop"] == 0.3
        }
        assert lossy[False]["delivery_rate"] < 1.0
        assert lossy[True]["delivery_rate"] > lossy[False]["delivery_rate"]
        assert lossy[True]["delivery_rate"] >= 0.95

    def test_confidentiality_clean_everywhere(self, sweep):
        payload = direct_payload(sweep, FIXED)
        assert payload["all_clean"] is True
        assert all(entry["clean"] for entry in payload["cells"])

    def test_faults_land_in_the_direct_stage(self, sweep):
        payload = direct_payload(sweep, FIXED)
        by_stage = payload["total_faults_by_stage"]
        assert by_stage  # the drop=0.3 cells injected something
        assert set(by_stage) == {"direct"}


class TestRunRecordStages:
    def test_direct_record_attributes_faults_by_stage(self):
        spec = RunSpec.make("direct", seed=0, drop=0.3, **FIXED)
        record = execute_spec(spec)
        assert record.faults["drop"] > 0
        assert set(record.faults_by_stage) == {"direct"}
        round_tripped = type(record).from_dict(record.to_dict())
        assert round_tripped.faults_by_stage == record.faults_by_stage

    def test_old_record_dicts_still_load(self):
        spec = RunSpec.make("direct", seed=0, drop=0.3, **FIXED)
        record = execute_spec(spec)
        legacy = record.to_dict()
        legacy.pop("faults_by_stage")
        loaded = type(record).from_dict(legacy)
        assert loaded.faults_by_stage == {}
        assert loaded.faults == record.faults
