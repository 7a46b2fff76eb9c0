"""The sharded backend: bit-identical results, plans, options, gating."""

import dataclasses

import pytest

from repro.api import CongosParams, run_scenario
from repro.audit.metadata import MetadataAuditor
from repro.core.congos import build_partition_set
from repro.exec.results import RunRecord
from repro.exec.tasks import RunSpec
from repro.harness.parity import compare_paths
from repro.harness.runner import run_congos_scenario
from repro.harness.scenarios import get_builder
from repro.net.coordinator import NetOptions
from repro.net.shard import ShardPlan
from repro.sim.engine import SimObserver, UnsupportedScenario, flatten


def _record(result) -> RunRecord:
    # No spec_key: the payload alone must match across backends.
    return RunRecord.from_result(result).without_profile()


class DeliveredStream(SimObserver):
    """The delivered stream, per message and flattened from the fan-outs."""

    def __init__(self):
        self.stream = []
        self.flattened = []

    def on_deliver(self, round_no, m):
        self.stream.append((round_no, m.src, m.dst, m.service, m.channel, m.size))

    def on_fanouts(self, round_no, cut):
        self.flattened.extend(
            (round_no, m.src, m.dst, m.service, m.channel, m.size)
            for m in flatten(cut)
        )


def _observed(scenario):
    """Run ``scenario`` with delivery observers; return the result and
    what they concluded (the fan-out grouping itself is left out: the
    sharded path cuts finer)."""
    stream, metadata = DeliveredStream(), MetadataAuditor()
    result = run_congos_scenario(scenario, observers=[stream, metadata])
    assert stream.flattened == stream.stream
    auditor = result.confidentiality
    return result, {
        "stream": stream.stream,
        "border_messages": dict(auditor.border_messages),
        "fragment_holders": {k: h for k, h in auditor.fragment_holders.items() if h},
        "knowledge": {pid: atoms for pid, atoms in auditor.knowledge.items() if atoms},
        "violations": auditor.violations,
        "exposure": metadata.exposure(scenario.n),
    }


def _compare_backends(scenario, workers=2):
    """Run one scenario on both backends; assert the path contract (which
    includes bit-identical digests), the same delivered stream and the
    same delivery observers' state."""
    inproc, inproc_seen = _observed(scenario)
    sharded, sharded_seen = _observed(
        dataclasses.replace(
            scenario, backend="sharded", net={"workers": workers}
        )
    )
    report = compare_paths(scenario.name, inproc, sharded)
    assert report.path == "object-sharded"
    assert report.passed, report.failures
    assert sharded_seen == inproc_seen
    # Not vacuous: fragments crossed the border and outsiders saw rumors.
    assert inproc_seen["border_messages"]
    assert inproc_seen["exposure"].observer_rumor_pairs > 0
    net = sharded.engine.net_summary()
    assert net["local_messages"] + net["cross_messages"] == sharded.stats.total
    return inproc, sharded


def test_sharded_matches_inproc_steady_pipeline():
    # deadline 64 > direct_send_threshold: the full Proxy/GD/Gossip
    # pipeline runs, so Proxy and GD traffic crosses the shard boundary.
    scenario = get_builder("steady")(
        n=16, rounds=96, seed=0, deadline=64, params=CongosParams.preset("lean")
    )
    _, sharded = _compare_backends(scenario, workers=2)
    assert sharded.engine.net_summary()["cross_messages"] > 0


def test_sharded_matches_inproc_n64():
    scenario = get_builder("steady")(
        n=64, rounds=32, seed=1, deadline=64, params=CongosParams.preset("lean")
    )
    _compare_backends(scenario, workers=2)


def test_sharded_chaos_keyed_matches_inproc_three_workers():
    # Every fate is keyed on the message's own coordinates, so the two
    # backends agree with no flag; three workers over n=16 also
    # exercises a non-divisible shard split.
    # Delayed and duplicated copies reach the delivered stream rounds
    # after they were sent, some past their items' expiry — by then the
    # stream's item table has dropped the item, and it is re-sent in full.
    scenario = get_builder("chaos")(
        n=16,
        rounds=80,
        seed=2,
        deadline=64,
        drop=0.05,
        delay=0.05,
        duplicate=0.02,
        reorder=0.2,
        params=CongosParams.preset("lean"),
    )
    inproc, sharded = _compare_backends(scenario, workers=3)
    assert sharded.fault_plane is not None
    assert (
        sharded.fault_plane.counts_summary()
        == inproc.fault_plane.counts_summary()
    )


def test_sharded_chaos_with_churn_matches_inproc_late_loss():
    # Chaos crossed with churn: delayed and duplicated copies mature into
    # crashed recipients and are lost late, on both backends alike.
    scenario = get_builder("chaos")(
        n=16,
        rounds=120,
        seed=4,
        deadline=64,
        drop=0.05,
        delay=0.1,
        duplicate=0.05,
        reorder=0.3,
        churn=0.01,
        params=CongosParams.preset("lean"),
    )
    inproc, sharded = _compare_backends(scenario, workers=3)
    counts = inproc.fault_plane.counts_summary()
    assert sharded.fault_plane.counts_summary() == counts
    assert counts["late_loss"] > 0


def test_sharded_matches_inproc_hardened_pipeline():
    # The graceful-degradation layer on the pipeline path: proxy
    # retransmits, doubled GD sends, the early fallback and gossip resend
    # backoff all cross the shard boundary under loss.
    scenario = get_builder("chaos")(
        n=16,
        rounds=96,
        seed=0,
        deadline=64,
        drop=0.1,
        delay=0.1,
        duplicate=0.02,
        hardened=True,
        params=CongosParams.preset("lean"),
    )
    assert scenario.params.hardened
    inproc, sharded = _compare_backends(scenario, workers=2)
    assert (
        sharded.fault_plane.counts_summary()
        == inproc.fault_plane.counts_summary()
    )


def test_sharded_matches_inproc_hardened_direct_send():
    # The direct-send layer (acks, retransmits, extra copies) under drop.
    # Whole rumors go source to destination, no fragment crosses a group
    # border, so the record alone is compared.
    scenario = get_builder("direct")(
        n=16, rounds=96, seed=0, drop=0.3, hardened=True
    )
    inproc = run_congos_scenario(scenario)
    sharded = run_congos_scenario(
        dataclasses.replace(scenario, backend="sharded", net={"workers": 2})
    )
    assert _record(sharded) == _record(inproc)
    assert _record(inproc).by_service["direct_ack"] > 0


def test_sharded_matches_inproc_under_churn():
    scenario = get_builder("churn")(
        n=16,
        rounds=64,
        seed=3,
        deadline=64,
        p_crash=0.05,
        p_restart=0.3,
        params=CongosParams.preset("lean"),
    )
    # Crashes and restarts change who sends what from round to round while
    # the streams' item tables carry on across them.
    inproc, sharded = _compare_backends(scenario, workers=2)
    # The run must actually have exercised crash/restart relay.
    assert sharded.engine.event_log.summary()["crashes"] > 0


def test_api_backend_selector():
    kwargs = dict(
        n=8, rounds=24, deadline=16, seed=0, params=CongosParams.preset("lean")
    )
    inproc = run_scenario("steady", **kwargs)
    sharded = run_scenario(
        "steady", backend="sharded", net={"workers": 2}, **kwargs
    )
    assert _record(sharded) == _record(inproc)


def test_telemetry_supported_on_sharded_backend():
    # The full cross-backend contract lives in tests/test_net_telemetry.py;
    # this pins the api-level plumbing: a traced sharded run works, emits
    # worker-labelled events, and matches the untraced payload exactly.
    from repro.obs.instrument import Telemetry
    from repro.obs.sink import CollectSink

    kwargs = dict(
        n=8, rounds=24, deadline=16, seed=0, params=CongosParams.preset("lean")
    )
    sink = CollectSink()
    traced = run_scenario(
        "steady",
        backend="sharded",
        net={"workers": 2},
        telemetry=Telemetry(sinks=[sink]),
        **kwargs,
    )
    untraced = run_scenario(
        "steady", backend="sharded", net={"workers": 2}, **kwargs
    )
    assert sink.events, "traced sharded run produced no events"
    assert all("worker" in event.fields for event in sink.events)
    assert _record(traced) == _record(untraced)


def test_mid_round_adversary_rejected():
    scenario = get_builder("proxy-killer")(
        n=16, rounds=16, seed=0, params=CongosParams.preset("lean")
    )
    with pytest.raises(UnsupportedScenario, match="mid_round"):
        run_congos_scenario(
            dataclasses.replace(
                scenario, backend="sharded", net={"workers": 2}
            )
        )


def test_mid_round_rejection_names_composed_part():
    # The error must identify WHICH part of a ComposedAdversary is the
    # problem and point at the supported alternative (targeted chaos
    # policies), not just say "something overrides mid_round".
    from repro.adversary.base import Adversary, ComposedAdversary
    from repro.net.coordinator import _reject_mid_round_adversaries

    class Benign(Adversary):
        pass

    class Nosy(Adversary):
        def mid_round(self, view, outgoing):
            return super().mid_round(view, outgoing)

    composed = ComposedAdversary([Benign(), Nosy(), Benign()])
    with pytest.raises(UnsupportedScenario) as excinfo:
        _reject_mid_round_adversaries(composed)
    message = str(excinfo.value)
    assert "Nosy (part 2 of 3 in a ComposedAdversary)" in message
    assert "Scenario.targeted" in message
    assert "chaos_keyed" not in message

    # A bare (non-composed) adversary is named without the part suffix.
    with pytest.raises(UnsupportedScenario) as excinfo:
        _reject_mid_round_adversaries(Nosy())
    assert "ComposedAdversary" not in str(excinfo.value).split("Run this")[0]

    # Benign compositions pass.
    _reject_mid_round_adversaries(ComposedAdversary([Benign(), Benign()]))


def test_sharded_targeted_matches_inproc():
    # Targeted policies decide from shard-invariant metadata and
    # per-destination budgets, so the whole RunRecord — including the
    # merged budget ledger — must be bit-identical across backends.
    scenario = get_builder("targeted")(
        n=16,
        rounds=96,
        seed=4,
        policy="collector-starver",
        per_round=2,
        total=32,
        params=CongosParams.preset("lean"),
    )
    inproc, sharded = _compare_backends(scenario, workers=3)
    inproc_summary = inproc.fault_plane.targeted_summary()
    sharded_summary = sharded.fault_plane.targeted_summary()
    assert sharded_summary == inproc_summary
    assert inproc_summary["budget"]["spent"] > 0


def test_sharded_targeted_composed_with_oblivious_drop():
    # The targeted layer's fallthrough to the oblivious schedule must
    # also be shard-invariant when both are active.
    scenario = get_builder("targeted")(
        n=16,
        rounds=96,
        seed=5,
        policy="deadline-chaser",
        per_round=2,
        total=32,
        drop=0.05,
        params=CongosParams.preset("lean"),
    )
    inproc, sharded = _compare_backends(scenario, workers=2)
    assert (
        sharded.fault_plane.targeted_summary()
        == inproc.fault_plane.targeted_summary()
    )


def test_net_options_validation():
    options = NetOptions(None)
    assert (options.workers, options.transport) == (2, "tcp")
    with pytest.raises(ValueError, match="unknown net options"):
        NetOptions({"worker": 2})
    with pytest.raises(ValueError, match="workers"):
        NetOptions({"workers": 0})
    with pytest.raises(ValueError, match="exceeds n"):
        run_scenario(
            "steady",
            n=8,
            rounds=8,
            backend="sharded",
            net={"workers": 9},
        )


def test_shard_plan_layout_and_locality():
    params = CongosParams.preset("lean")
    partitions = build_partition_set(16, params, seed=0)
    plan = ShardPlan.build(16, 2, partition_set=partitions)
    assert sorted(
        pid for worker in range(2) for pid in plan.pids_of(worker)
    ) == list(range(16))
    assert plan.assignments()[0] == plan.pids_of(0)
    # Group-major layout: every partition-0 group fits one worker here.
    assert plan.locality(partitions) == 1.0

    with pytest.raises(ValueError, match="at least one worker"):
        ShardPlan.build(8, 0)
    with pytest.raises(ValueError, match="empty"):
        ShardPlan.build(4, 5)
    with pytest.raises(ValueError, match="cover every pid"):
        ShardPlan(n=4, workers=2, owner=(0, 1, 0))


def test_runspec_backend_excluded_from_default_key():
    base = RunSpec.make("steady", seed=0, n=16, rounds=32, deadline=64)
    explicit = RunSpec.make(
        "steady", seed=0, n=16, rounds=32, deadline=64, backend="inproc"
    )
    sharded = RunSpec.make(
        "steady",
        seed=0,
        n=16,
        rounds=32,
        deadline=64,
        backend="sharded",
        net={"workers": 2},
    )
    # Pre-sharding cache keys survive: the default backend never enters
    # the content hash (or the serialized form), a non-default one does.
    assert explicit.key == base.key
    assert sharded.key != base.key
    assert "backend" not in base.to_dict()
    assert RunSpec.from_dict(base.to_dict()) == base
    assert RunSpec.from_dict(sharded.to_dict()) == sharded
    assert sharded.to_scenario().backend == "sharded"
    assert base.to_scenario().backend == "inproc"


def test_killed_worker_is_reported_by_name():
    """Drill: SIGKILL one of two workers at round 5.  The coordinator must
    say which worker, how it died and when — promptly, not at the transport
    timeout — and leave no worker process behind."""
    import multiprocessing
    import os
    import signal
    import time

    from repro.net.coordinator import WorkerLost
    from repro.sim.engine import SimObserver

    class KillWorkerOne(SimObserver):
        def on_round_begin(self, round_no):
            if round_no == 5:
                (victim,) = [
                    process
                    for process in multiprocessing.active_children()
                    if process.name == "repro-net-worker-1"
                ]
                os.kill(victim.pid, signal.SIGKILL)

    scenario = get_builder("steady")(
        n=16, rounds=32, seed=0, deadline=64, params=CongosParams.preset("lean")
    )
    scenario = dataclasses.replace(
        scenario, backend="sharded", net={"workers": 2, "timeout": 60.0}
    )
    started = time.perf_counter()
    with pytest.raises(WorkerLost) as excinfo:
        run_congos_scenario(scenario, observers=[KillWorkerOne()])
    elapsed = time.perf_counter() - started
    message = str(excinfo.value)
    assert "worker 1" in message
    assert "exit code {}".format(-signal.SIGKILL) in message
    assert "round 5" in message
    assert elapsed < 20.0, elapsed  # a third of the transport timeout
    assert multiprocessing.active_children() == []


def _exit_before_hello(config):
    import os

    os._exit(3)


def test_worker_dead_before_hello_is_reported_promptly(monkeypatch):
    """A worker that dies before connecting (its ``__main__`` cannot be
    re-imported under spawn, say) must not cost the whole transport
    timeout: the coordinator names it and its exit code within seconds."""
    import multiprocessing
    import time

    from repro.net import coordinator

    monkeypatch.setattr(coordinator, "worker_main", _exit_before_hello)
    scenario = get_builder("steady")(
        n=16, rounds=8, seed=0, deadline=64, params=CongosParams.preset("lean")
    )
    started = time.perf_counter()
    with pytest.raises(coordinator.WorkerLost) as excinfo:
        run_scenario(scenario, backend="sharded", net={"workers": 2})
    assert time.perf_counter() - started < 5.0
    assert "exit code 3" in str(excinfo.value)
    assert multiprocessing.active_children() == []


def test_worker_survives_reporting_to_a_closed_coordinator(monkeypatch, capsys):
    """A worker whose coordinator is already gone cannot deliver its error
    frame; it must exit with one stderr line, not a chained traceback."""
    import socket

    from repro.net import worker as worker_module
    from repro.net.transport import TcpConnection, Transport

    class GoneCoordinator(Transport):
        def connect(self, address):
            ours, theirs = socket.socketpair()
            theirs.close()
            connection = TcpConnection(ours)
            connection.close()  # every send/recv now raises TransportClosed
            return connection

    monkeypatch.setattr(
        worker_module, "get_transport", lambda name, timeout=None: GoneCoordinator()
    )
    # The config is incomplete on purpose: building the ShardWorker fails,
    # which is what sends the worker down its error-reporting path.
    worker_module.worker_main({"transport": "tcp", "address": None, "worker": 3})
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "worker 3" in err and "Traceback" not in err
