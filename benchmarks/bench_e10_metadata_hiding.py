"""E10 — Section 7 extensions: the price of hiding metadata.

Two mitigations are measured against a vanilla run of the same traffic:

* **destination hiding** — each rumor becomes n-1 single-destination
  rumors (real content for destinations, chaff for the rest): message
  *counts* stay in the same regime, message *volume* (size units) grows;
* **cover traffic** — fake rumors injected alongside real ones to hide
  how many real rumors exist: cost scales with the chosen cover rate.
"""

import random

import pytest

from repro.adversary.base import ComposedAdversary
from repro.adversary.injection import ScriptedWorkload
from repro.core.extensions import (
    CoverTrafficWorkload,
    expand_destination_hiding,
    extract_hidden_payload,
)
from repro.harness.report import format_table
from repro.harness.runner import Scenario, run_congos_scenario
from repro.harness.scenarios import steady_scenario

from _util import emit, lean_params, run_once

N = 8
ROUNDS = 320
DEADLINE = 64


def base_script(count=6, start=64, gap=16):
    rng = random.Random(42)
    script = []
    for i in range(count):
        src = i % N
        dest = set(rng.sample([p for p in range(N) if p != src], 2))
        script.append((start + i * gap, src, DEADLINE, dest))
    return script


def scenario_from_script(script, name, params):
    def workload(rng):
        return ScriptedWorkload(script, rng)

    return Scenario(
        name=name,
        n=N,
        rounds=ROUNDS,
        seed=0,
        params=params,
        workload_factory=workload,
    )


def expand_script(script):
    """Apply Section 7's destination hiding to a script."""
    rng = random.Random(99)
    expanded = []
    for index, (round_no, src, deadline, dest) in enumerate(script):
        from repro.gossip.rumor import Rumor, RumorId

        rumor = Rumor(
            rid=RumorId(src, index),
            data=b"secret-%02d" % index,
            deadline=deadline,
            dest=frozenset(dest),
            injected_at=round_no,
        )
        subs = expand_destination_hiding(rumor, N, rng)
        # One injection per process per round: spread the n-1 sub-rumors
        # over consecutive rounds at the same source.
        for offset, sub in enumerate(subs):
            expanded.append(
                (round_no + offset, src, deadline, set(sub.dest), sub.data)
            )
    return expanded


def test_e10_destination_hiding_cost(benchmark):
    params = lean_params()

    def experiment():
        plain = run_congos_scenario(
            scenario_from_script(base_script(), "plain", params)
        )
        hidden = run_congos_scenario(
            scenario_from_script(expand_script(base_script()), "dest-hidden", params)
        )
        assert plain.qod.satisfied
        assert hidden.qod.satisfied
        return plain, hidden

    plain, hidden = run_once(benchmark, experiment)
    rows = [
        [
            "plain",
            plain.rumors_injected,
            plain.stats.total,
            plain.stats.total_size,
            plain.stats.max_per_round(),
        ],
        [
            "dest-hidden",
            hidden.rumors_injected,
            hidden.stats.total,
            hidden.stats.total_size,
            hidden.stats.max_per_round(),
        ],
        [
            "overhead x",
            round(hidden.rumors_injected / plain.rumors_injected, 2),
            round(hidden.stats.total / plain.stats.total, 2),
            round(hidden.stats.total_size / plain.stats.total_size, 2),
            round(hidden.stats.max_per_round() / plain.stats.max_per_round(), 2),
        ],
    ]
    table = format_table(
        ["run", "rumors", "total msgs", "total size", "max/round"],
        rows,
        title=(
            "E10  Destination hiding (Section 7): every rumor becomes n-1 "
            "single-destination rumors"
        ),
    )
    emit("e10_destination_hiding", table)
    # Rumor count inflates by ~n-1; per-destination chaff is the price.
    assert hidden.rumors_injected == plain.rumors_injected * (N - 1)
    assert hidden.stats.total > plain.stats.total


def test_e10_chaff_really_hides(benchmark):
    """Receivers of chaff extract nothing; destinations extract payload."""

    def experiment():
        from repro.gossip.rumor import Rumor, RumorId

        rng = random.Random(0)
        rumor = Rumor(
            rid=RumorId(0, 0),
            data=b"the-plan",
            deadline=DEADLINE,
            dest=frozenset({2, 4}),
            injected_at=0,
        )
        subs = expand_destination_hiding(rumor, N, rng)
        verdicts = []
        for sub in subs:
            (dst,) = sub.dest
            verdicts.append((dst, extract_hidden_payload(sub.data)))
        return verdicts

    verdicts = run_once(benchmark, experiment)
    for dst, payload in verdicts:
        if dst in (2, 4):
            assert payload == b"the-plan"
        else:
            assert payload is None
    emit(
        "e10b_chaff",
        "E10b  chaff check: {} sub-rumors, destinations {{2,4}} extracted "
        "the payload, everyone else got None".format(len(verdicts)),
    )


def test_e10_metadata_exposure(benchmark):
    """Section 7's leak, measured: how many outsiders learn a rumor's
    existence and destination set, with and without destination hiding."""
    from repro.audit.metadata import MetadataAuditor
    from repro.core.extensions import DestinationHidingWorkload
    from repro.adversary.injection import ScriptedWorkload
    from repro.sim.rng import derive_rng

    params = lean_params()
    script = base_script()

    def run_mode(hide):
        def workload(rng):
            inner = ScriptedWorkload(script, derive_rng(3, "inner"))
            if hide:
                return DestinationHidingWorkload(inner, N, rng)
            return inner

        auditor = MetadataAuditor()
        scenario = Scenario(
            name="exposure-{}".format(hide),
            n=N,
            rounds=ROUNDS,
            seed=0,
            params=params,
            workload_factory=workload,
        )
        result = run_congos_scenario(scenario, observers=[auditor])
        assert result.qod.satisfied
        return auditor.exposure(N)

    def experiment():
        return run_mode(False), run_mode(True)

    plain, hidden = run_once(benchmark, experiment)
    rows = [
        [
            "plain",
            plain.rumors,
            plain.mean_observers_per_rumor,
            plain.dest_set_disclosures,
            plain.max_dest_set_size_seen,
        ],
        [
            "dest-hidden",
            hidden.rumors,
            hidden.mean_observers_per_rumor,
            hidden.dest_set_disclosures,
            hidden.max_dest_set_size_seen,
        ],
    ]
    table = format_table(
        [
            "run",
            "rumors",
            "mean outside observers",
            "dest-set disclosures",
            "max |D| seen by outsiders",
        ],
        rows,
        title=(
            "E10d  Metadata exposure: destination hiding collapses every "
            "observed destination set to a singleton"
        ),
    )
    emit("e10d_metadata_exposure", table)
    assert plain.max_dest_set_size_seen >= 2
    assert hidden.max_dest_set_size_seen <= 1


def test_e10_cover_traffic_cost(benchmark):
    params = lean_params()

    def experiment():
        rows = []
        for cover_rate in (0, 1, 2):
            scenario = steady_scenario(
                n=N,
                rounds=ROUNDS,
                seed=0,
                deadline=DEADLINE,
                rate=1,
                period=8,
                params=params,
                name="cover-{}".format(cover_rate),
            )
            if cover_rate:
                real_factory = scenario.workload_factory

                def workload(rng, real_factory=real_factory, rate=cover_rate):
                    real = real_factory(rng)
                    cover = CoverTrafficWorkload(
                        N,
                        random.Random(rng.random()),
                        rate=rate,
                        period=8,
                        deadline=DEADLINE,
                        start_round=real.start_round + 4,
                        stop_round=real.stop_round,
                    )
                    return ComposedAdversary([real, cover])

                scenario.workload_factory = workload
            result = run_congos_scenario(scenario)
            assert result.qod.satisfied
            rows.append(
                [
                    cover_rate,
                    result.rumors_injected,
                    result.stats.total,
                    result.stats.max_per_round(),
                ]
            )
        return rows

    rows = run_once(benchmark, experiment)
    table = format_table(
        ["cover rate", "rumors (real+fake)", "total msgs", "max/round"],
        rows,
        title="E10c  Cover traffic: hiding rumor existence costs linear overhead",
    )
    emit("e10c_cover_traffic", table)
    totals = [row[2] for row in rows]
    assert totals == sorted(totals)


def test_e10_metadata_exposure_engines(benchmark):
    """The same leak on both engines and up to n=4096: the array engine
    lowers its sends into fan-outs with payload-free Facts, so the
    metadata auditor reads them as it reads the object engine's."""
    pytest.importorskip("numpy", minversion="2.0")
    import dataclasses
    import time

    from repro.audit.metadata import MetadataAuditor
    from repro.core.config import CongosParams

    cells = [("object", 64, 240), ("array", 64, 240), ("array", 1024, 120),
             ("array", 4096, 120)]

    def experiment():
        rows = []
        for engine, n, rounds in cells:
            scenario = steady_scenario(
                n=n, rounds=rounds, seed=3, deadline=DEADLINE,
                params=CongosParams.preset("lean"),
            )
            auditor = MetadataAuditor()
            start = time.perf_counter()
            result = run_congos_scenario(
                dataclasses.replace(scenario, engine=engine), observers=[auditor]
            )
            print("{} n={}: {:.1f} s".format(engine, n, time.perf_counter() - start))
            assert result.qod.satisfied
            exposure = auditor.exposure(n)
            rows.append([
                "{} n={} ({} rounds)".format(engine, n, rounds),
                exposure.rumors,
                exposure.mean_observers_per_rumor,
                exposure.dest_set_disclosures,
                exposure.max_dest_set_size_seen,
            ])
        return rows

    rows = run_once(benchmark, experiment)
    table = format_table(
        [
            "run",
            "rumors",
            "mean outside observers",
            "dest-set disclosures",
            "max |D| seen by outsiders",
        ],
        rows,
        title=(
            "E10e  Metadata exposure across engines (steady, lean, seed 3): "
            "the array engine's lowered fan-outs at n up to 4096"
        ),
    )
    emit("e10e_metadata_exposure_engines", table)
    anchor, array64 = rows[0], rows[1]
    assert array64[1] == anchor[1]
    assert abs(array64[3] - anchor[3]) <= 0.05 * anchor[3]
