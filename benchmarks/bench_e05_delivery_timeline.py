"""E5 — Lemmas 8, 9 and 10: the pipeline timeline.

For a single rumor injected at a known round, the paper claims (w.h.p.):

* fragments reach both groups within 2 blocks of dline/4 (Lemma 8);
* every destination holds all fragments within 3 blocks (Lemma 9);
* the source sees its confirmation by round t + d - 1 (Lemma 10).

We measure the actual rounds at which each stage completes across seeds
and injection offsets, under benign and adversarial conditions, and
compare against the per-lemma budgets.
"""

from repro.adversary.injection import ScriptedWorkload
from repro.api import trace
from repro.harness.report import format_table
from repro.harness.runner import Scenario, run_congos_scenario

from _util import emit, lean_params, run_once

N = 16
DLINE = 64
BLOCK = DLINE // 4


def timeline_scenario(inject_at, seed, dest, params):
    def workload(rng):
        return ScriptedWorkload([(inject_at, 0, DLINE, set(dest))], rng)

    return Scenario(
        name="timeline",
        n=N,
        rounds=inject_at + 2 * DLINE,
        seed=seed,
        params=params,
        workload_factory=workload,
    )


def test_e05_delivery_timeline(benchmark):
    params = lean_params()
    dest = (3, 5, 10)

    def experiment():
        rows = []
        for offset_label, offset in (
            ("block start", 0),
            ("mid block", BLOCK // 2),
            ("block end", BLOCK - 1),
        ):
            for seed in (0, 1, 2):
                inject_at = 2 * DLINE + offset
                result, timeline = trace(
                    timeline_scenario(inject_at, seed, dest, params)
                )
                report = result.qod
                assert report.satisfied
                latencies = report.latencies()
                (lifecycle,) = timeline.lifecycles()
                confirm_round = lifecycle.confirmed_round
                rows.append(
                    [
                        offset_label,
                        seed,
                        inject_at,
                        max(latencies),
                        3 * BLOCK + 2 * BLOCK,  # Lemma-9 budget + alignment slack
                        (confirm_round - inject_at) if confirm_round else None,
                        DLINE - 1,
                        report.path_counts(),
                    ]
                )
        return rows

    rows = run_once(benchmark, experiment)
    table = format_table(
        [
            "injection",
            "seed",
            "round",
            "max delivery latency",
            "Lemma-9 budget",
            "confirm latency",
            "Lemma-10 budget",
            "paths",
        ],
        rows,
        title="E5  Pipeline timeline vs Lemma 8/9/10 budgets (single rumor)",
    )
    emit("e05_delivery_timeline", table)
    for row in rows:
        assert row[3] <= row[4], "delivery exceeded the Lemma-9 budget"
        assert row[5] is not None and row[5] <= row[6], "confirmation late"


def test_e05_timeline_under_proxy_killer(benchmark):
    """Lemma 8's adversary: proxies crash on contact; the retry loop must
    still land everything inside the deadline."""
    from repro.adversary.adaptive import ProxyKillerAdversary

    params = lean_params()
    dest = (3, 5)

    def experiment():
        rows = []
        for seed in (0, 1):
            inject_at = 2 * DLINE
            scenario = timeline_scenario(inject_at, seed, dest, params)
            scenario.fault_factory = lambda rng, partitions, n: ProxyKillerAdversary(
                budget_per_round=1, total_budget=4, restart_after=DLINE // 2
            )
            result = run_congos_scenario(scenario)
            assert result.qod.satisfied
            rows.append(
                [
                    seed,
                    result.engine.event_log.summary()["crashes"],
                    max(result.qod.latencies()),
                    DLINE,
                    result.qod.path_counts(),
                ]
            )
        return rows

    rows = run_once(benchmark, experiment)
    table = format_table(
        ["seed", "proxy kills", "max latency", "deadline", "paths"],
        rows,
        title="E5b  Timeline under the adaptive proxy killer (Lemma 8's adversary)",
    )
    emit("e05b_timeline_proxy_killer", table)
    for row in rows:
        assert row[2] <= row[3]
