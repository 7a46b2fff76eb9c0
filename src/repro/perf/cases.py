"""Stable-keyed microbenchmark cases for the round-engine hot paths.

Each :class:`PerfCase` isolates one code path that the E17 profiling
identified as hot (or that a past optimization must keep fast): the case
``setup`` builds a fresh workload and returns a zero-argument operation;
the bench layer times that operation over warmup/repeat cycles.  Keys are
stable strings — they name time series in ``BENCH`` artifacts across
commits, so never rename one lightly.

Cases deliberately run in milliseconds at their default sizes: the CI
``perf-smoke`` job runs the whole suite at reduced repeats, and flaky
wall-clock gates are explicitly out of scope (regressions are caught by
inspecting the committed artifact trends, correctness by the golden-digest
tests).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["PerfCase", "register_case", "get_case", "all_cases", "case_keys"]

Operation = Callable[[], object]


@dataclass(frozen=True)
class PerfCase:
    """One microbenchmark: ``setup()`` builds and returns the timed op.

    ``setup`` is re-invoked for every repeat so state mutated by one
    timing run (advanced engines, filled caches) never leaks into the
    next.  ``ops`` is the number of logical operations one call of the
    returned callable performs, for ns/op reporting.
    """

    key: str
    title: str
    setup: Callable[[], Operation]
    ops: int = 1
    tags: Tuple[str, ...] = field(default=())


_REGISTRY: Dict[str, PerfCase] = {}


def register_case(case: PerfCase) -> PerfCase:
    """Add a case to the registry; keys must be unique."""
    if case.key in _REGISTRY:
        raise ValueError("duplicate perf case key {!r}".format(case.key))
    _REGISTRY[case.key] = case
    return case


def get_case(key: str) -> PerfCase:
    try:
        return _REGISTRY[key]
    except KeyError:
        raise KeyError(
            "unknown perf case {!r}; known: {}".format(key, ", ".join(case_keys()))
        )


def all_cases(tags: Optional[Tuple[str, ...]] = None) -> List[PerfCase]:
    """All registered cases (optionally filtered by tag), key-sorted."""
    cases = sorted(_REGISTRY.values(), key=lambda case: case.key)
    if tags:
        wanted = set(tags)
        cases = [case for case in cases if wanted & set(case.tags)]
    return cases


def case_keys() -> List[str]:
    return sorted(_REGISTRY)


# ----------------------------------------------------------------------
# Built-in cases
# ----------------------------------------------------------------------

_N_MESSAGES = 5000


def _setup_message_construct() -> Operation:
    from repro.sim.messages import Message, ServiceTags

    def op() -> object:
        last = None
        for i in range(_N_MESSAGES):
            last = Message(
                src=i % 64, dst=(i + 1) % 64, service=ServiceTags.ALL_GOSSIP
            )
        return last

    return op


def _setup_network_route() -> Operation:
    from repro.sim.messages import Message, ServiceTags
    from repro.sim.network import Network

    n = 64
    network = Network(n)
    burst = [
        Message(src=i % n, dst=(i * 7 + 1) % n, service=ServiceTags.BASELINE)
        for i in range(_N_MESSAGES)
    ]
    alive = set(range(n))

    def op() -> object:
        return network.route(0, burst, alive_after_round=alive, boundary_pids=set())

    return op


def _noop_engine(n: int, observers=()):
    from repro.sim.engine import Engine
    from repro.sim.process import NodeBehavior

    return Engine(n, lambda pid: NodeBehavior(pid, n), observers=observers)


def _setup_engine_round_noop() -> Operation:
    engine = _noop_engine(128)

    def op() -> object:
        engine.run(20)
        return engine.rounds_executed

    return op


def _setup_engine_round_observers() -> Operation:
    # A SimObserver subclass overriding nothing: the dispatch tables must
    # keep its per-message cost at zero.
    from repro.sim.engine import SimObserver

    engine = _noop_engine(128, observers=[SimObserver() for _ in range(4)])

    def op() -> object:
        engine.run(20)
        return engine.rounds_executed

    return op


def _setup_epidemic_targets() -> Operation:
    from repro.gossip.epidemic import choose_push_targets

    rng = random.Random(1234)
    scope = tuple(range(64))

    def op() -> object:
        last = None
        for pid in range(64):
            for _ in range(8):
                last = choose_push_targets(rng, scope, pid, 6)
        return last

    return op


def _make_gossip(pid: int, deliver=None):
    from repro.gossip.continuous import ContinuousGossip

    return ContinuousGossip(
        pid=pid,
        n=32,
        channel="perf/gossip",
        scope=range(32),
        rng=random.Random(pid),
        deliver=deliver,
    )


def _setup_continuous_round() -> Operation:
    # One inject + saturation: receivers absorb the same batch repeatedly,
    # exercising the seen-check fast path and the broadcast-horizon scan.
    sender = _make_gossip(0)
    receiver = _make_gossip(1)
    for i in range(40):
        sender.inject(0, payload=("blob", i), deadline=48, dest=range(32))

    def op() -> object:
        total = 0
        for round_no in range(1, 12):
            messages = sender.send_phase(round_no)
            total += len(messages)
            for message in messages:
                if message.dst == 1:
                    receiver.on_message(round_no, message)
            receiver.end_round(round_no)
        return total

    return op


_FANOUT_RECEIVERS = 8
_FANOUT_ROUNDS_PER_OP = 16
_FANOUT_STANDING_ITEMS = 75


def _setup_gossip_receive_saturated() -> Operation:
    # The steady state of a saturated epidemic: every round each of 8
    # receivers is handed the sender's ~76-item batch (one object for the
    # whole fanout) and already has all of it — except, every fourth
    # round, one newly born item (on the ledger's steady_object about one
    # gossip message in five brings anything new).  continuous_round above
    # feeds a single receiver; this is the fan-out shape the per-batch
    # receive path is built for.
    from repro.sim.messages import Message

    sender = _make_gossip(0)
    receivers = [_make_gossip(pid) for pid in range(1, _FANOUT_RECEIVERS + 1)]
    for i in range(_FANOUT_STANDING_ITEMS):
        sender.inject(0, payload=("blob", i), deadline=48, dest=range(32))
    warm = sender.send_phase(0)[0]
    for receiver in receivers:
        receiver.on_message(0, warm)
        receiver.end_round(0)

    def op() -> object:
        absorbed = 0
        for round_no in range(1, _FANOUT_ROUNDS_PER_OP + 1):
            if round_no % 4 == 1:
                sender.inject(
                    round_no, payload=("new", round_no), deadline=4,
                    dest=range(32),
                )
            first = sender.send_phase(round_no)[0]
            for receiver in receivers:
                receiver.on_message(
                    round_no,
                    Message(
                        0, receiver.pid, first.service, first.payload,
                        first.size, first.channel,
                    ),
                )
                receiver.end_round(round_no)
            absorbed += len(first.payload)
        return absorbed

    return op


def _setup_audit_batch_fanout() -> Operation:
    # The same shape seen by the auditor: a ~76-item batch, mostly
    # atom-less shares plus the fragments of two rumors, delivered to 8
    # destinations per round as one payload object.
    from repro.audit.confidentiality import ConfidentialityAuditor
    from repro.core.splitting import split_rumor
    from repro.gossip.rumor import GossipItem, ItemBatch, Rumor, RumorId
    from repro.sim.messages import Message, ServiceTags

    everyone = frozenset(range(32))
    rumors = [
        Rumor(RumorId(src, 0), b"perf-secret-bytes", 64, frozenset({1, 2, 3}))
        for src in (0, 9)
    ]
    standing = [
        GossipItem(frag.uid, rumor.rid.src, frag, 100, everyone)
        for rumor in rumors
        for partition in range(2)
        for frag in split_rumor(rumor, partition, 2, random.Random(5), 64, 100)
    ]
    standing += [
        GossipItem(("perf/gd", "share", i, 0), i % 32, ("hits", i), 100, everyone)
        for i in range(_FANOUT_STANDING_ITEMS - len(standing))
    ]

    def op() -> object:
        auditor = ConfidentialityAuditor(num_partitions=2, num_groups=2)
        for rumor in rumors:
            auditor.on_inject(0, rumor.rid.src, rumor)
        for round_no in range(1, _FANOUT_ROUNDS_PER_OP + 1):
            newcomer = GossipItem(
                ("perf/gd", "share", 0, round_no), 0, ("hits", round_no),
                100, everyone,
            )
            batch = ItemBatch((*standing, newcomer))
            auditor.on_deliver_round(
                round_no,
                [
                    Message(0, dst, ServiceTags.GROUP_GOSSIP, batch, len(batch))
                    for dst in range(1, _FANOUT_RECEIVERS + 1)
                ],
            )
        return auditor.total_border_messages

    return op


def _setup_audit_deliver() -> Operation:
    from repro.audit.confidentiality import ConfidentialityAuditor
    from repro.gossip.rumor import GossipItem, ItemBatch
    from repro.sim.messages import Message, ServiceTags, fragment_atom

    class _Frag:
        def __init__(self, rid: str, partition: int, group: int) -> None:
            self.atom = fragment_atom(rid, partition, group)

        def reveals(self):
            yield self.atom

    # What the engine hands the auditor: one ItemBatch object fanned out
    # to 15 destinations, the round's deliveries as one list.
    items = ItemBatch(
        GossipItem(
            uid=("perf", i),
            origin=0,
            payload=_Frag("r0:{}".format(i % 4), i % 4, i % 2),
            expiry=100,
            dest=frozenset(range(16)),
        )
        for i in range(50)
    )
    messages = [
        Message(src=0, dst=dst, service=ServiceTags.GROUP_GOSSIP, payload=items)
        for dst in range(1, 16)
    ]

    def op() -> object:
        auditor = ConfidentialityAuditor(num_partitions=4, num_groups=2)
        for round_no in range(8):
            auditor.on_deliver_round(round_no, messages)
        return auditor.total_border_messages

    return op


def _setup_clock_arithmetic() -> Operation:
    from repro.sim.clock import BlockSchedule

    schedule = BlockSchedule(256)

    def op() -> object:
        total = 0
        for round_no in range(4096):
            total += schedule.iteration_of(round_no)
            total += schedule.round_in_iteration(round_no)
            if schedule.is_iteration_last_round(round_no):
                total += 1
        return total

    return op


def _setup_e6_steady_small() -> Operation:
    # The end-to-end anchor: a small E6 steady cell through the full
    # pipeline (engine + network + CONGOS + auditors).
    from repro.core.config import CongosParams
    from repro.exec.tasks import RunSpec, execute_spec

    spec = RunSpec.make(
        "steady",
        seed=0,
        n=16,
        rounds=96,
        deadline=64,
        rate=1,
        period=4,
        params=CongosParams.lean(),
    )

    def op() -> object:
        return execute_spec(spec).total

    return op


register_case(
    PerfCase(
        key="message_construct",
        title="Message construction ({} envelopes)".format(_N_MESSAGES),
        setup=_setup_message_construct,
        ops=_N_MESSAGES,
        tags=("sim", "micro"),
    )
)
register_case(
    PerfCase(
        key="network_route",
        title="Network.route burst ({} messages)".format(_N_MESSAGES),
        setup=_setup_network_route,
        ops=_N_MESSAGES,
        tags=("sim", "micro"),
    )
)
register_case(
    PerfCase(
        key="engine_round_noop",
        title="Engine rounds, no observers (n=128 x 20 rounds)",
        setup=_setup_engine_round_noop,
        ops=20,
        tags=("sim", "micro"),
    )
)
register_case(
    PerfCase(
        key="engine_round_noop_observers",
        title="Engine rounds, 4 no-op observers (n=128 x 20 rounds)",
        setup=_setup_engine_round_observers,
        ops=20,
        tags=("sim", "micro"),
    )
)
register_case(
    PerfCase(
        key="epidemic_targets",
        title="choose_push_targets (64 pids x 8 pushes)",
        setup=_setup_epidemic_targets,
        ops=64 * 8,
        tags=("gossip", "micro"),
    )
)
register_case(
    PerfCase(
        key="continuous_round",
        title="ContinuousGossip send/absorb (40 items x 11 rounds)",
        setup=_setup_continuous_round,
        ops=11,
        tags=("gossip", "micro"),
    )
)
register_case(
    PerfCase(
        key="gossip_receive_saturated",
        title="ContinuousGossip.on_message, saturated (76-item batch x "
        "{} receivers x {} rounds)".format(
            _FANOUT_RECEIVERS, _FANOUT_ROUNDS_PER_OP
        ),
        setup=_setup_gossip_receive_saturated,
        ops=_FANOUT_RECEIVERS * _FANOUT_ROUNDS_PER_OP,
        tags=("gossip", "micro"),
    )
)
register_case(
    PerfCase(
        key="audit_batch_fanout",
        title="ConfidentialityAuditor.on_deliver_round, one batch fanned "
        "out (76 items x {} dsts x {} rounds)".format(
            _FANOUT_RECEIVERS, _FANOUT_ROUNDS_PER_OP
        ),
        setup=_setup_audit_batch_fanout,
        ops=_FANOUT_RECEIVERS * _FANOUT_ROUNDS_PER_OP,
        tags=("audit", "micro"),
    )
)
register_case(
    PerfCase(
        key="audit_deliver",
        title="ConfidentialityAuditor.on_deliver_round "
        "(15 dsts x 8 rounds x 50 items)",
        setup=_setup_audit_deliver,
        ops=15 * 8,
        tags=("audit", "micro"),
    )
)
register_case(
    PerfCase(
        key="clock_arithmetic",
        title="BlockSchedule iteration arithmetic (4096 rounds)",
        setup=_setup_clock_arithmetic,
        ops=4096,
        tags=("sim", "micro"),
    )
)
register_case(
    PerfCase(
        key="e6_steady_small",
        title="End-to-end steady run (n=16, 96 rounds, lean)",
        setup=_setup_e6_steady_small,
        ops=1,
        tags=("end_to_end",),
    )
)


# ----------------------------------------------------------------------
# Array-engine kernels (repro.fastcore) — registered only when the
# repro[fast] extra's numpy is importable, so the registry (and tier-1)
# stays intact without it.
# ----------------------------------------------------------------------

_BITSET_ROUNDS = 64
_SPLIT_ROUNDS = 32
_FANOUT_ROUNDS = 32
_SCATTER_ROUNDS = 64
_GD_HIT_ROUNDS = 32


def _setup_fastcore_bitset_membership() -> Operation:
    import numpy as np

    from repro.fastcore import bitset

    n = 4096
    rng = np.random.default_rng(7)
    members = bitset.from_indices(rng.choice(n, size=n // 3, replace=False), n)
    other = bitset.from_indices(rng.choice(n, size=n // 3, replace=False), n)
    probes = rng.integers(0, n, size=n)

    def op() -> object:
        total = 0
        for _ in range(_BITSET_ROUNDS):
            total += int(bitset.test_bits(members, probes).sum())
            total += bitset.popcount(bitset.andnot(members, other))
            total += int(bitset.is_subset(other, members))
        return total

    return op


def _setup_fastcore_fragment_xor() -> Operation:
    import numpy as np

    from repro.fastcore.kernels import merge_shares, split_shares

    rng = np.random.default_rng(11)
    data = bytes(range(256)) * 4  # 1 KiB payload, 16 partitions x 2 groups

    def op() -> object:
        merged = b""
        for _ in range(_SPLIT_ROUNDS):
            shares = split_shares(data, 16, 2, rng)
            merged = merge_shares(shares[0])
        assert merged == data
        return merged

    return op


def _setup_fastcore_fanout_sampling() -> Operation:
    import numpy as np

    from repro.fastcore.kernels import sample_targets_excluding_self

    rng = np.random.default_rng(13)
    scope = np.arange(256, dtype=np.int64)
    senders = np.arange(256, dtype=np.int64)

    def op() -> object:
        last = None
        for _ in range(_FANOUT_ROUNDS):
            last = sample_targets_excluding_self(rng, scope, senders, 6)
        return last

    return op


def _setup_fastcore_scatter_mask() -> Operation:
    import numpy as np

    from repro.fastcore import bitset

    n = 4096
    rng = np.random.default_rng(17)
    # One spread step's worth of draws: 2048 senders x fanout 22, with the
    # repeats a real target matrix has.
    draws = rng.integers(0, n, size=2048 * 22)
    holders = bitset.from_indices(rng.choice(n, size=n // 2, replace=False), n)

    def op() -> object:
        total = 0
        for _ in range(_SCATTER_ROUNDS):
            fresh = bitset.andnot(bitset.from_indices(draws, n), holders)
            total += len(bitset.to_indices(fresh, n))
        return total

    return op


def _setup_fastcore_gd_hit_batch() -> Operation:
    import numpy as np

    from repro.fastcore import bitset
    from repro.fastcore.kernels import gd_hit_batch

    n, rumors = 256, 96
    rng = np.random.default_rng(19)
    pools = np.stack(
        [bitset.from_indices(rng.choice(n, size=32, replace=False), n)
         for _ in range(rumors)]
    )
    pool_bits = bitset.to_flags(pools)
    flat = rng.integers(0, n, size=16 * 8)  # 16 class senders x fanout 8

    def op() -> object:
        total = 0
        for _ in range(_GD_HIT_ROUNDS):
            appropriate, hits = gd_hit_batch(pools, pool_bits, flat)
            total += int(appropriate.sum()) + bitset.popcount(hits)
        return total

    return op


def _register_fastcore_cases() -> None:
    from repro.fastcore import numpy_available

    if not numpy_available():
        return
    register_case(
        PerfCase(
            key="fastcore_bitset_membership",
            title="fastcore bitset membership (n=4096, {} sweeps)".format(
                _BITSET_ROUNDS
            ),
            setup=_setup_fastcore_bitset_membership,
            ops=_BITSET_ROUNDS,
            tags=("fastcore", "micro"),
        )
    )
    register_case(
        PerfCase(
            key="fastcore_fragment_xor",
            title="fastcore batched fragment XOR (1 KiB x 16 partitions x "
            "{} splits)".format(_SPLIT_ROUNDS),
            setup=_setup_fastcore_fragment_xor,
            ops=_SPLIT_ROUNDS,
            tags=("fastcore", "micro"),
        )
    )
    register_case(
        PerfCase(
            key="fastcore_fanout_sampling",
            title="fastcore fanout sampling (256 senders x k=6 x "
            "{} rounds)".format(_FANOUT_ROUNDS),
            setup=_setup_fastcore_fanout_sampling,
            ops=_FANOUT_ROUNDS * 256,
            tags=("fastcore", "micro"),
        )
    )
    register_case(
        PerfCase(
            key="fastcore_scatter_mask",
            title="fastcore index->mask scatter (45k draws into n=4096 x "
            "{} rounds)".format(_SCATTER_ROUNDS),
            setup=_setup_fastcore_scatter_mask,
            ops=_SCATTER_ROUNDS,
            tags=("fastcore", "micro"),
        )
    )
    register_case(
        PerfCase(
            key="fastcore_gd_hit_batch",
            title="fastcore GD hit batch (96 rumors x 128 draws, n=256 x "
            "{} classes)".format(_GD_HIT_ROUNDS),
            setup=_setup_fastcore_gd_hit_batch,
            ops=_GD_HIT_ROUNDS,
            tags=("fastcore", "micro"),
        )
    )


_register_fastcore_cases()
