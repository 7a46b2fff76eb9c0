"""The round contract, identical on every execution path.

Object-inproc (``Engine``), object-sharded (``ShardEngine``, 2 workers)
and array (``ArrayEngine``, numpy-gated) are three subclasses of one
round skeleton (``repro.sim.engine.RoundEngine``).  Whatever the skeleton
owns — the adversary's view, validation of its decision, the order of
crash/restart/inject events and observer calls — must therefore not
merely agree across them but *be the same code*; these tests pin both.

Engines are built directly, with a raw (un-composed) scripted adversary,
so the skeleton's own validation is what answers — a
``ComposedAdversary`` in front would catch some of these first.
"""

import contextlib
import dataclasses

import pytest

from repro.adversary.base import Adversary
from repro.audit.confidentiality import ConfidentialityAuditor
from repro.core.config import CongosParams
from repro.core.congos import CongosNode, congos_factory
from repro.fastcore import numpy_available
from repro.gossip.rumor import Rumor, RumorId
from repro.harness.runner import Scenario, assemble, run_congos_scenario
from repro.net.coordinator import NetOptions, ShardEngine
from repro.net.shard import ShardPlan
from repro.sim.engine import (
    AdversaryView,
    Engine,
    RoundEngine,
    SimObserver,
    UnsupportedScenario,
    flatten,
)
from repro.sim.events import RoundDecision
from repro.sim.messages import ServiceTags

# The tier-1 matrix has no numpy (and a host may have numpy 1.x, which
# the array engine refuses): the array leg skips.
if numpy_available():
    ARRAY = "array"
else:
    ARRAY = pytest.param("array", marks=pytest.mark.skip(reason="needs numpy>=2.0"))

N = 8
OBJECT_PATHS = ["inproc", "sharded"]
ALL_PATHS = OBJECT_PATHS + [ARRAY]
# The same three paths as plain names, for loops inside one test.
RUNNABLE_PATHS = OBJECT_PATHS + (["array"] if numpy_available() else [])


def _rumor(src, seq, round_no, dest=(1, 6)):
    return Rumor(
        rid=RumorId(src, seq),
        data=b"contract-%d-%d" % (src, seq),
        deadline=64,
        dest=frozenset(dest),
        injected_at=round_no,
    )


class Scripted(Adversary):
    """Plays ``{round: (crashes, restarts, [(pid, seq), ...])}`` verbatim —
    no aliveness check, no composition: invalid decisions reach the engine."""

    def __init__(self, script):
        self.script = script

    def round_start(self, view):
        crashes, restarts, injections = self.script.get(view.round, ((), (), ()))
        return RoundDecision(
            crashes=set(crashes),
            restarts=set(restarts),
            injections=[(pid, _rumor(pid, seq, view.round)) for pid, seq in injections],
        )


class Recorder:
    """Every skeleton-owned observer call as ``(hook, round, pid)``, and the
    adversary's view at each round end."""

    def __init__(self):
        self.calls = []
        self.views = []

    def on_round_begin(self, round_no):
        self.calls.append(("on_round_begin", round_no, None))

    def on_crash(self, round_no, pid, mid_round):
        self.calls.append(("on_crash", round_no, pid))

    def on_restart(self, round_no, pid):
        self.calls.append(("on_restart", round_no, pid))

    def on_inject(self, round_no, pid, rumor):
        self.calls.append(("on_inject", round_no, pid))

    def on_round_end(self, round_no, engine):
        self.calls.append(("on_round_end", round_no, None))
        view = engine.view
        self.views.append(
            (
                sorted(view.alive_pids()),
                sorted(view.crashed_pids()),
                [view.is_alive(pid) for pid in range(view.n)],
                sorted(view.touched_this_round()),
            )
        )


def _scenario(path):
    scenario = Scenario(
        name="round-contract", n=N, rounds=1, seed=0, params=CongosParams.preset("lean")
    )
    if path == "sharded":
        return dataclasses.replace(scenario, backend="sharded", net={"workers": 2})
    if path == "array":
        return dataclasses.replace(scenario, engine="array")
    return scenario


@contextlib.contextmanager
def engine_on(path, adversary, observers=()):
    """The path's engine over the shared assembly, adversary swapped in raw."""
    scenario = _scenario(path)
    setup = assemble(scenario, observers=observers)
    common = dict(adversary=adversary, observers=setup.observers)
    if path == "inproc":
        factory = congos_factory(
            N,
            params=scenario.params,
            seed=scenario.seed,
            deliver_callback=setup.delivery.record_delivery,
            partition_set=setup.partition_set,
        )
        yield Engine(n=N, node_factory=factory, seed=scenario.seed, **common)
    elif path == "sharded":
        options = NetOptions(scenario.net)
        plan = ShardPlan.build(N, options.workers, partition_set=setup.partition_set)
        engine = ShardEngine(
            scenario, plan, options, delivery=setup.delivery, **common
        )
        try:
            yield engine
        finally:
            engine.close()
    else:
        from repro.fastcore.engine import ArrayEngine

        yield ArrayEngine(
            n=N,
            params=scenario.params,
            partition_set=setup.partition_set,
            seed=scenario.seed,
            record_delivery=setup.delivery.record_delivery,
            auditor=setup.confidentiality,
            **common,
        )


def _play(path, script, rounds):
    recorder = Recorder()
    with engine_on(path, Scripted(script), [recorder]) as engine:
        engine.run(rounds)
        return recorder, engine.event_log.summary()


# crash -> restart -> inject (at the restarted pid too), then a round that
# crashes one pid and restarts another.
FAULTY = {
    1: ((2, 5), (), ()),
    3: ((), (2,), ()),
    4: ((), (), ((0, 0), (2, 0))),
    6: ((0,), (5,), ((3, 0),)),
}
FAULT_FREE = {2: ((), (), ((0, 0), (4, 0))), 5: ((), (), ((0, 1),))}


def _assert_paths_agree(script, paths, rounds=8):
    reference, reference_log = _play(paths[0], script, rounds)
    assert len(reference.views) == rounds
    for path in paths[1:]:
        recorder, log = _play(path, script, rounds)
        assert recorder.calls == reference.calls, path
        assert recorder.views == reference.views, path
        assert log == reference_log, path
    return reference, reference_log


def test_object_paths_agree_under_crashes_and_restarts():
    recorder, log = _assert_paths_agree(FAULTY, OBJECT_PATHS)
    assert log == {"crashes": 3, "restarts": 2, "injections": 3}
    # One round's order: begin, crashes (ascending), restarts, injections, end.
    assert [call for call in recorder.calls if call[1] == 6] == [
        ("on_round_begin", 6, None),
        ("on_crash", 6, 0),
        ("on_restart", 6, 5),
        ("on_inject", 6, 3),
        ("on_round_end", 6, None),
    ]
    alive, crashed, is_alive, touched = recorder.views[6]
    assert crashed == [0] and touched == [0, 5] and not is_alive[0]


def test_all_paths_agree_fault_free():
    pytest.importorskip("numpy", minversion="2.0")
    _assert_paths_agree(FAULT_FREE, OBJECT_PATHS + ["array"])


def _wire(message):
    return (message.src, message.dst, message.service, message.channel, message.size)


class PerMessage:
    """Duck-typed, ``on_deliver`` only (the ledger's capture observer)."""

    def __init__(self):
        self.seen = []

    def on_deliver(self, round_no, message):
        self.seen.append((round_no, _wire(message)))


class PerRound(SimObserver):
    """Overrides both delivery hooks: both fire."""

    def __init__(self):
        self.rounds = []
        self.messages = []

    def on_deliver(self, round_no, message):
        self.messages.append((round_no, _wire(message)))

    def on_fanouts(self, round_no, cut):
        self.rounds.append((round_no, cut))


def test_deliveries_are_announced_per_message_or_per_round():
    rounds = 8
    seen = {}
    for path in RUNNABLE_PATHS:
        per_message, per_round = PerMessage(), PerRound()
        # A hook shadowed on the *instance*, as a tracer wrapping bound
        # methods leaves it.
        shadowed = SimObserver()
        shadowed.rounds = []
        shadowed.on_fanouts = lambda round_no, cut: shadowed.rounds.append(
            (round_no, cut)
        )
        observers = [per_message, per_round, shadowed]
        with engine_on(path, Scripted(FAULT_FREE), observers) as engine:
            engine.run(rounds)
        # One cut per round, shared by every fan-out observer.
        assert [round_no for round_no, _ in per_round.rounds] == list(range(rounds))
        assert shadowed.rounds == per_round.rounds
        # The cut compares no service or channel: the senders keep them
        # uniform within a fan-out, so the flattened cut is the stream.
        flattened = [
            (round_no, _wire(message))
            for round_no, cut in per_round.rounds
            for message in flatten(cut)
        ]
        assert per_round.messages == per_message.seen == flattened, path
        assert per_message.seen, "the script must produce traffic"
        assert any(len(dsts) > 1 for _, cut in per_round.rounds for _, dsts, _ in cut)
        seen[path] = per_message.seen
    assert seen["sharded"] == seen["inproc"]


@pytest.mark.parametrize("path", ALL_PATHS)
def test_fanouts_account_for_every_message_sent(path):
    # Fault-free, every sent message is delivered: per round and service,
    # the flattened fan-outs are exactly what the stats counted.
    rounds = 96
    per_round = PerRound()
    script = {**FAULT_FREE, 9: ((), (), ((3, 0), (5, 0)))}
    with engine_on(path, Scripted(script), [per_round]) as engine:
        engine.run(rounds)
        stats = engine.stats
    counted = {}
    for round_no, cut in per_round.rounds:
        for head, dsts, _ in cut:
            key = (round_no, head.service)
            counted[key] = counted.get(key, 0) + len(dsts)
    expected = {
        (round_no, service): stats.per_round_by_service(round_no, service)
        for round_no in range(rounds)
        for service in ServiceTags.ALL
        if stats.per_round_by_service(round_no, service)
    }
    assert counted == expected
    assert sum(counted.values()) == stats.total > 0
    assert {service for _, service in counted} == {
        ServiceTags.PROXY, ServiceTags.GROUP_DISTRIBUTION,
        ServiceTags.GROUP_GOSSIP, ServiceTags.ALL_GOSSIP,
    }


def test_array_fanouts_fail_a_content_auditor_loudly():
    # The array engine's fan-outs carry routing metadata only; an object
    # ConfidentialityAuditor handed to it must not read them as "nothing".
    pytest.importorskip("numpy", minversion="2.0")
    auditor = ConfidentialityAuditor(num_partitions=2, num_groups=2)
    with engine_on("array", Scripted({0: ((), (), ((0, 0),))}), [auditor]) as engine:
        with pytest.raises(UnsupportedScenario, match="object engine"):
            engine.run_round()
        assert engine.round == 0


@pytest.mark.parametrize("path", ALL_PATHS)
def test_behavior_is_what_the_path_has_in_reach(path):
    with engine_on(path, Scripted({})) as engine:
        assert type(engine.view) is AdversaryView
        if path == "inproc":
            assert isinstance(engine.view.behavior(3), CongosNode)
        elif path == "sharded":
            with pytest.raises(NotImplementedError, match="shard worker process"):
                engine.view.behavior(3)
        else:
            assert engine.view.behavior(3) is None


INVALID = {
    "crash-and-restart": (
        {1: ((4,), (4,), ())},
        ValueError,
        "a process may crash or restart at most once per round",
        0,
    ),
    "duplicate-injection": (
        {1: ((), (), ((2, 0), (2, 1)))},
        ValueError,
        r"at most one rumor per process per round \(pid 2\)",
        1,  # the first injection at pid 2 was valid and stands
    ),
    "restart-of-alive": (
        {1: ((), (3,), ())},
        RuntimeError,
        "process 3 is already alive",
        0,
    ),
}


@pytest.mark.parametrize("case", sorted(INVALID))
@pytest.mark.parametrize("path", ALL_PATHS)
def test_invalid_decisions_raise_the_same_everywhere(path, case):
    script, error, message, injections = INVALID[case]
    with engine_on(path, Scripted(script)) as engine:
        engine.run_round()
        with pytest.raises(error, match=message):
            engine.run_round()
        assert engine.event_log.summary() == {
            "crashes": 0, "restarts": 0, "injections": injections
        }


@pytest.mark.parametrize("path", OBJECT_PATHS)
def test_injection_at_crashed_pid_rejected(path):
    with engine_on(path, Scripted({0: ((3,), (), ()), 1: ((), (), ((3, 0),))})) as engine:
        engine.run_round()
        with pytest.raises(ValueError, match="cannot inject at crashed process 3"):
            engine.run_round()


def test_array_refuses_crash_decisions():
    pytest.importorskip("numpy", minversion="2.0")
    with engine_on("array", Scripted({0: ((3,), (), ())})) as engine:
        with pytest.raises(UnsupportedScenario, match="fault-free runs only"):
            engine.run_round()


@pytest.mark.parametrize("path", ALL_PATHS)
def test_every_backend_rejects_a_workload_injecting_twice_at_one_pid(path):
    # Through the public runner the workload sits behind a
    # ComposedAdversary; either layer's refusal names the pid.
    scenario = dataclasses.replace(
        _scenario(path),
        rounds=4,
        workload_factory=lambda rng: Scripted({1: ((), (), ((2, 0), (2, 1)))}),
    )
    with pytest.raises(ValueError, match="pid 2"):
        run_congos_scenario(scenario)


def test_paths_do_not_restate_the_skeleton():
    pytest.importorskip("numpy", minversion="2.0")
    from repro.fastcore.engine import ArrayEngine

    owned = [
        "run", "_round_start", "_crash", "_restart", "alive_pids",
        "add_observer", "_rebuild_dispatch", "_HOOKS", "round",
        "_announce_deliveries",
    ]
    for cls in (Engine, ShardEngine, ArrayEngine):
        assert issubclass(cls, RoundEngine)
        restated = [name for name in owned if name in vars(cls)]
        assert not restated, (cls.__name__, restated)
    # ShardEngine wraps run_round for its phase clock; the array engine
    # takes the skeleton's as is.
    assert "run_round" not in vars(ArrayEngine)
    assert "run_round" not in vars(Engine)
