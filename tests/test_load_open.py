"""Tests for repro.load: open-workload arrivals, admission control,
SLO summaries, the ``open`` scenario builder, and the E20 soak helpers.

Covers the determinism contract (streams draw only from their own rng
and the round number, so open runs are jobs- and backend-invariant),
the shed-leak audit, telemetry leak safety, RunRecord round-trips, and
knee location in the E20 payload.
"""

import dataclasses
import random

import pytest

from repro.analysis.sweeps import sweep_congos
from repro.core.config import CongosParams
from repro.exec.results import RunRecord
from repro.harness.runner import run_congos_scenario
from repro.harness.scenarios import get_builder, open_scenario, open_window
from repro.load.admission import AdmissionPolicy, AdmissionQueue
from repro.load.arrivals import (
    Arrival,
    ArrivalSpec,
    ArrivalStream,
    PROCESSES,
    poisson_sample,
)
from repro.load.slo import slo_summary
from repro.load.soak import load_cells, load_payload
from repro.load.workload import OpenWorkload
from repro.sim.rng import derive_rng


def stream(spec=None, n=16, seed=0, **kwargs):
    return ArrivalStream(
        spec if spec is not None else ArrivalSpec(), n, derive_rng(seed, "wl"),
        **kwargs,
    )


def collect(s, rounds):
    return [s.arrivals(r) for r in range(rounds)]


class TestPoissonSample:
    def test_deterministic(self):
        a = poisson_sample(random.Random(7), 3.5)
        b = poisson_sample(random.Random(7), 3.5)
        assert a == b

    def test_zero_mean_is_zero(self):
        assert poisson_sample(random.Random(0), 0.0) == 0

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            poisson_sample(random.Random(0), -1.0)

    def test_large_mean_near_lambda(self):
        # The chunked sampler must survive lambdas that would underflow
        # exp(-lam); the sample mean should land near lambda.
        rng = random.Random(11)
        lam = 500.0
        samples = [poisson_sample(rng, lam) for _ in range(200)]
        mean = sum(samples) / len(samples)
        assert abs(mean - lam) < 0.05 * lam


class TestArrivalSpec:
    def test_round_trip(self):
        spec = ArrivalSpec(
            process="bursty",
            rate=4.0,
            deadlines=(32, 64),
            deadline_weights=(3.0, 1.0),
            zipf_groups=4,
        )
        assert ArrivalSpec.from_dict(spec.to_dict()) == spec

    def test_json_lists_coerced_to_tuples(self):
        spec = ArrivalSpec.from_dict(
            {"deadlines": [16, 32], "deadline_weights": [1, 1]}
        )
        assert spec.deadlines == (16, 32)
        assert spec.deadline_weights == (1, 1)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown ArrivalSpec"):
            ArrivalSpec.from_dict({"ratee": 2.0})

    def test_unknown_process_rejected(self):
        with pytest.raises(ValueError, match="process"):
            ArrivalSpec(process="flash_crowd")

    @pytest.mark.parametrize(
        "bad",
        [
            {"rate": -1.0},
            {"burst_on": 0},
            {"period": 1},
            {"dest_size": 0},
            {"zipf_s": 0.0},
            {"deadlines": ()},
            {"deadlines": (0,)},
            {"payload_size": 0},
        ],
    )
    def test_invalid_fields_rejected(self, bad):
        with pytest.raises(ValueError):
            ArrivalSpec(**bad)

    def test_weights_must_match_deadlines(self):
        with pytest.raises(ValueError, match="length"):
            ArrivalSpec(deadlines=(16, 32), deadline_weights=(1.0,))

    def test_mean_rate_curves(self):
        poisson = ArrivalSpec(process="poisson", rate=3.0)
        assert poisson.mean_rate(0) == poisson.mean_rate(123) == 3.0
        bursty = ArrivalSpec(
            process="bursty", rate=5.0, burst_on=4, burst_off=4, off_rate=1.0
        )
        assert bursty.mean_rate(3) == 5.0
        assert bursty.mean_rate(4) == 1.0
        diurnal = ArrivalSpec(process="diurnal", rate=8.0, period=10)
        assert diurnal.mean_rate(0) == pytest.approx(0.0)
        assert diurnal.mean_rate(5) == pytest.approx(8.0)

    def test_processes_registry(self):
        assert PROCESSES == ("poisson", "bursty", "diurnal")


class TestArrivalStream:
    def test_same_seed_same_stream(self):
        assert collect(stream(seed=4), 60) == collect(stream(seed=4), 60)

    def test_different_seed_different_stream(self):
        assert collect(stream(seed=4), 60) != collect(stream(seed=5), 60)

    def test_window_respected(self):
        s = stream(seed=1, start_round=10, stop_round=20)
        assert all(not s.arrivals(r) for r in range(10))
        assert all(not s.arrivals(r) for r in range(20, 30))

    def test_arrival_shape(self):
        spec = ArrivalSpec(rate=8.0, dest_size=3, payload_size=8)
        batches = collect(stream(spec, n=16, seed=2), 20)
        arrivals = [a for batch in batches for a in batch]
        assert arrivals
        for a in arrivals:
            assert 0 <= a.src < 16
            assert a.src not in a.dest
            assert 1 <= len(a.dest) <= 3
            assert a.deadline == 64
            assert len(a.data) == 8

    def test_zipf_skews_destinations(self):
        spec = ArrivalSpec(rate=8.0, zipf_groups=4, zipf_s=1.5, dest_size=2)
        batches = collect(stream(spec, n=32, seed=3), 200)
        hot = other = 0
        for batch in batches:
            for a in batch:
                for d in a.dest:
                    if d < 8:  # block 0 of 4 over n=32
                        hot += 1
                    else:
                        other += 1
        assert hot > other  # block 0 gets the Zipf head

    def test_deadline_mix_weighted(self):
        spec = ArrivalSpec(
            rate=8.0, deadlines=(16, 64), deadline_weights=(9.0, 1.0)
        )
        batches = collect(stream(spec, seed=5), 200)
        deadlines = [a.deadline for batch in batches for a in batch]
        assert set(deadlines) <= {16, 64}
        assert deadlines.count(16) > 5 * deadlines.count(64)

    def test_needs_two_processes(self):
        with pytest.raises(ValueError, match="two processes"):
            stream(n=1)

    def test_zipf_groups_bounded_by_n(self):
        with pytest.raises(ValueError, match="zipf_groups"):
            stream(ArrivalSpec(zipf_groups=20), n=16)


def mk_arrival(src=0, round_no=0, data=b"x" * 4):
    return Arrival(
        arrival_round=round_no,
        src=src,
        dest=frozenset({src + 1}),
        deadline=16,
        data=data,
    )


class TestAdmissionQueue:
    def test_offer_sheds_when_full(self):
        q = AdmissionQueue(2)
        assert q.offer(0, mk_arrival(0))
        assert q.offer(0, mk_arrival(1))
        assert not q.offer(0, mk_arrival(2))
        assert len(q) == 2

    def test_expire_removes_old_entries(self):
        q = AdmissionQueue(8)
        q.offer(0, mk_arrival(0))
        q.offer(3, mk_arrival(1))
        expired = q.expire(5, max_wait=4)
        assert [e.arrival.src for e in expired] == [0]
        assert len(q) == 1

    def test_expire_none_means_no_cap(self):
        q = AdmissionQueue(8)
        q.offer(0, mk_arrival(0))
        assert q.expire(10_000, max_wait=None) == []

    def test_take_budget_oldest_first(self):
        q = AdmissionQueue(8)
        for src in range(4):
            q.offer(src, mk_arrival(src, round_no=src))
        used = set()
        taken = q.take(10, budget=2, is_alive=lambda p: True, used_sources=used)
        assert [e.arrival.src for e in taken] == [0, 1]
        assert used == {0, 1}
        assert len(q) == 2

    def test_take_skips_crashed_and_used_sources(self):
        q = AdmissionQueue(8)
        for src in (0, 1, 2):
            q.offer(0, mk_arrival(src))
        taken = q.take(
            1, budget=3, is_alive=lambda p: p != 1, used_sources={0}
        )
        assert [e.arrival.src for e in taken] == [2]
        # Skipped entries stay queued for another chance next round.
        assert len(q) == 2

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="per_round"):
            AdmissionPolicy(per_round=0)
        with pytest.raises(ValueError, match="queue_cap"):
            AdmissionPolicy(queue_cap=0)
        with pytest.raises(ValueError, match="max_wait"):
            AdmissionPolicy(max_wait=0)
        with pytest.raises(ValueError, match="unknown AdmissionPolicy"):
            AdmissionPolicy.from_dict({"cap": 1})
        policy = AdmissionPolicy(per_round=2, queue_cap=8, max_wait=4)
        assert AdmissionPolicy.from_dict(policy.to_dict()) == policy


class TestInjectionBudget:
    def test_floor_is_one(self):
        assert CongosParams().injection_budget(16) == 1

    def test_scales_with_n(self):
        params = CongosParams()
        assert params.injection_budget(64) == 2
        assert params.injection_budget(256) == 8

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            CongosParams().injection_budget(1)


def run_open_scenario(**kwargs):
    defaults = dict(
        n=16, rounds=160, seed=3, rate=2.0, params=CongosParams.preset("lean")
    )
    defaults.update(kwargs)
    return run_congos_scenario(open_scenario(**defaults))


class TestOpenScenario:
    def test_registered(self):
        assert get_builder("open") is open_scenario

    def test_end_to_end_clean(self):
        result = run_open_scenario()
        workload = result.workload
        assert isinstance(workload, OpenWorkload)
        assert workload.offered > 0
        assert workload.admitted > 0
        assert result.confidentiality.is_clean()
        load = result.summary()["load"]
        assert load["offered"] == workload.offered
        assert load["shed_leak_free"]
        assert load["qod_satisfied"] == result.qod.satisfied

    def test_open_window_leaves_drain_margin(self):
        start, stop = open_window(200, max_deadline=64, max_wait=32)
        assert 0 < start < stop
        assert stop + 64 + 32 < 200

    def test_budget_defaults_to_core_hook(self):
        result = run_open_scenario()
        assert result.workload.budget == CongosParams().injection_budget(16)

    def test_per_round_override(self):
        result = run_open_scenario(per_round=3)
        assert result.workload.budget == 3

    def test_overload_sheds_but_stays_clean(self):
        # rate 8 against budget 1 and a small queue must shed heavily.
        result = run_open_scenario(
            rate=8.0, queue_cap=8, max_wait=8, rounds=200
        )
        workload = result.workload
        assert workload.shed_total > 0
        assert set(workload.shed_counts) == {"queue_full", "aged_out"}
        load = result.summary()["load"]
        assert load["shed_rate"] > 0
        assert load["shed_leaks"] == 0 and load["shed_leak_free"]
        assert result.confidentiality.is_clean()

    @pytest.mark.parametrize("process", PROCESSES)
    def test_all_processes_run(self, process):
        result = run_open_scenario(process=process, rounds=200)
        assert result.confidentiality.is_clean()
        assert result.summary()["load"]["process"] == process

    def test_record_round_trips_with_load_section(self):
        record = RunRecord.from_result(run_open_scenario())
        assert record.load["offered"] > 0
        data = record.to_dict()
        assert "load" in data
        assert RunRecord.from_dict(data) == record

    def test_closed_records_stay_inert(self):
        closed = run_congos_scenario(
            get_builder("steady")(
                n=10, rounds=120, seed=1, params=CongosParams.preset("lean")
            )
        )
        assert slo_summary(closed) is None
        assert "load" not in closed.summary()
        record = RunRecord.from_result(closed)
        assert record.load == {}
        assert "load" not in record.to_dict()


class TestOpenDeterminism:
    def test_same_seed_bit_identical(self):
        a = RunRecord.from_result(run_open_scenario()).without_profile()
        b = RunRecord.from_result(run_open_scenario()).without_profile()
        assert a == b

    def test_jobs_invariance_on_exec_pool(self):
        cells = load_cells([2.0], [16])
        fixed = dict(rounds=160, params=CongosParams.preset("lean"))
        serial = sweep_congos("open", cells, seeds=(0, 1), jobs=1, **fixed)
        pooled = sweep_congos("open", cells, seeds=(0, 1), jobs=2, **fixed)
        strip = lambda sweep: [
            [run.without_profile() for run in cell.runs]
            for cell in sweep.cells
        ]
        assert strip(serial) == strip(pooled)

    def test_sharded_backend_matches_inproc(self):
        # n=8, not 16: the sharded backend costs ~1.4 ms per routed message,
        # and the arrival/admission stream (what this test is about) is just
        # as busy — rate 2 against a budget of 1/round keeps a queue.
        scenario = open_scenario(
            n=8, rounds=160, seed=3, rate=2.0, params=CongosParams.preset("lean")
        )
        inproc = run_congos_scenario(scenario)
        sharded = run_congos_scenario(
            dataclasses.replace(
                scenario, backend="sharded", net={"workers": 2}
            )
        )
        assert (
            RunRecord.from_result(sharded).without_profile()
            == RunRecord.from_result(inproc).without_profile()
        )
        assert sharded.summary()["load"] == inproc.summary()["load"]


class TestShedLeakAudit:
    def test_shed_payloads_never_surface(self):
        result = run_open_scenario(
            rate=8.0, queue_cap=8, max_wait=8, rounds=200
        )
        workload = result.workload
        assert workload.shed_records  # non-vacuous
        from repro.audit.confidentiality import shed_rumor_leaks

        assert shed_rumor_leaks(result) == []
        # Every shed payload is concrete bytes, none of them injected.
        injected_payloads = {rumor.data for rumor in workload.injected}
        for shed in workload.shed_records:
            assert shed.data
            assert shed.data not in injected_payloads

    def test_audit_flags_a_planted_leak(self):
        result = run_open_scenario(
            rate=8.0, queue_cap=8, max_wait=8, rounds=200
        )
        workload = result.workload
        shed = workload.shed_records[0]
        # Plant the shed payload as if it had been injected anyway.
        workload.injected[0] = dataclasses.replace(
            workload.injected[0], data=shed.data
        )
        from repro.audit.confidentiality import shed_rumor_leaks

        leaks = shed_rumor_leaks(result)
        assert leaks and "was injected" in leaks[0]


class TestTelemetry:
    def test_counters_and_leak_safe_events(self):
        from repro.obs.events import json_safe
        from repro.obs.instrument import Telemetry
        from repro.obs.sink import CollectSink

        sink = CollectSink()
        telemetry = Telemetry(sinks=[sink])
        scenario = open_scenario(
            n=16,
            rounds=200,
            seed=3,
            rate=8.0,
            queue_cap=8,
            max_wait=8,
            params=CongosParams.preset("lean"),
        )
        result = run_congos_scenario(scenario, telemetry=telemetry)
        workload = result.workload
        metrics = telemetry.metrics
        assert metrics.counter("load.offered").value == workload.offered
        assert metrics.counter("load.admitted").value == workload.admitted
        shed_events = [e for e in sink.events if e.kind == "load_shed"]
        assert len(shed_events) == workload.shed_total
        shed_payloads = {s.data for s in workload.shed_records}
        for event in shed_events:
            assert event.fields["reason"] in ("queue_full", "aged_out")
            safe = str(json_safe(event.fields))
            for payload in shed_payloads:
                assert str(payload) not in safe
                assert payload.hex() not in safe

    def test_disabled_telemetry_not_bound(self):
        from repro.obs.instrument import NullTelemetry

        workload = OpenWorkload(
            16,
            derive_rng(0, "wl"),
            ArrivalSpec(),
            AdmissionPolicy(),
            budget=1,
        )
        workload.bind_telemetry(NullTelemetry())
        assert workload._telemetry is None


class TestSoakHelpers:
    def test_load_cells_grid(self):
        cells = load_cells(
            [1.0, 2.0], [16], processes=("poisson", "bursty"), presets=("lean",)
        )
        assert len(cells) == 4
        assert {c["preset"] for c in cells} == {"lean"}

    def test_payload_and_knee(self):
        cells = load_cells([0.5, 8.0], [16], presets=("lean",))
        sweep = sweep_congos(
            "open", cells, seeds=(0,), jobs=2, rounds=200, queue_cap=8, max_wait=8
        )
        payload = load_payload(sweep, {"rounds": 200})
        assert payload["fixed"] == {"rounds": 200}
        assert len(payload["cells"]) == 2
        assert payload["total_offered"] == sum(
            e["offered"] for e in payload["cells"]
        )
        assert payload["total_admitted"] > 0
        assert payload["all_shed_leak_free"]
        for entry in payload["cells"]:
            assert entry["shed_leak_free"], entry["cell"]
            assert entry["delivery_latency"]["count"] > 0, entry["cell"]
            assert entry["delivery_latency"]["p99"] is not None, entry["cell"]
        (knee,) = payload["knees"]
        assert knee["rates"] == [0.5, 8.0]
        # rate 0.5 sustains under budget 1; rate 8 over a cap-8 queue
        # must shed (rate 1 would sit exactly at the budget, where
        # stochastic queueing against the tight wait cap already sheds).
        assert knee["knee_rate"] == 0.5
        assert knee["first_saturated_rate"] == 8.0
        assert knee["shed_rate_at_peak"] > 0
