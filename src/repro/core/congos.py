"""The CONGOS node: full protocol stack wiring (Figure 1).

One :class:`CongosNode` per process hosts:

* the :class:`ConfidentialGossipCoordinator` (rumor cache, reassembly,
  confirmation, fallback);
* one unfiltered AllGossip instance;
* lazily, per deadline class ``dline`` and per partition ``l``:
  a filtered GroupGossip[l] instance (scoped to this process's group), a
  Proxy[l] and a GroupDistribution[l].

``tau = 1`` (default) gives the base algorithm of Section 4 with bit
partitions; ``tau >= 2`` gives the collusion-tolerant variant of
Section 6.2 with ``tau + 1``-group random partitions — the node code is
identical, only the partition set and the split width change.

All volatile state lives in objects created by :meth:`on_start`; a crash
discards the node and a restart rebuilds it knowing only the algorithm,
``[n]``, the parameters/partitions (algorithm input) and the global clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional

from repro.core.confidential_gossip import (
    ConfidentialGossipCoordinator,
    DeliverCallback,
)
from repro.core.config import CongosParams
from repro.core.deadlines import pipeline_deadline
from repro.core.group_distribution import (
    GDShare,
    GroupDistributionService,
)
from repro.core.partitions import BitPartitions, PartitionSet, RandomPartitions
from repro.core.proxy import ProxyService, ProxyShare
from repro.core.splitting import Fragment, split_rumor
from repro.gossip.continuous import ContinuousGossip
from repro.gossip.rumor import GossipItem, Rumor
from repro.gossip.service import ServiceHost
from repro.obs.instrument import NULL_TELEMETRY
from repro.sim.clock import BlockSchedule
from repro.sim.messages import Message, ServiceTags
from repro.sim.process import NodeBehavior
from repro.sim.rng import SeedSequence

__all__ = ["CongosNode", "InstanceBundle", "build_partition_set", "congos_factory"]


def build_partition_set(
    n: int, params: CongosParams, seed: int = 0
) -> PartitionSet:
    """The partition family for a CONGOS deployment.

    Part of the *algorithm input*: every process (and every restart of it)
    must use the same family, so build it once and share it with every
    node factory.
    """
    if params.tau == 1:
        return BitPartitions(n)
    rng = SeedSequence(seed).child("partitions").rng()
    return RandomPartitions.generate(n, params.tau, rng)


@dataclass
class InstanceBundle:
    """Per-deadline-class services, indexed by partition, and the one
    schedule they all read."""

    schedule: BlockSchedule
    gossip: List[ContinuousGossip]
    proxies: List[ProxyService]
    distributions: List[GroupDistributionService]


class CongosNode(NodeBehavior):
    """The full CONGOS protocol at one process."""

    def __init__(
        self,
        pid: int,
        n: int,
        params: CongosParams,
        partition_set: PartitionSet,
        seeds: SeedSequence,
        deliver_callback: Optional[DeliverCallback] = None,
        telemetry=None,
    ):
        super().__init__(pid, n)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        if partition_set.n != n:
            raise ValueError("partition set built for different n")
        if partition_set.num_groups != params.num_groups:
            raise ValueError(
                "partition set has {} groups but params.tau={} needs {}".format(
                    partition_set.num_groups, params.tau, params.num_groups
                )
            )
        self.params = params
        self.partition_set = partition_set
        self.seeds = seeds
        self.deliver_callback = deliver_callback
        # Volatile attributes are created in on_start.
        self.wakeup = 0
        self.host: ServiceHost = ServiceHost()
        self.coordinator: ConfidentialGossipCoordinator
        self.all_gossip: ContinuousGossip
        self.instances: Dict[int, InstanceBundle] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def on_start(self, round_no: int) -> None:
        self.wakeup = round_no
        self._seed_scope = self.seeds.child(self.pid, round_no)
        self.host = ServiceHost()
        self.instances = {}
        self.all_gossip = ContinuousGossip(
            pid=self.pid,
            n=self.n,
            channel="all",
            scope=range(self.n),
            rng=self._seed_scope.rng("all"),
            deliver=self._on_all_item,
            service=ServiceTags.ALL_GOSSIP,
            fanout_scale=self.params.gossip_fanout_scale,
            schedule=self.params.gossip_schedule,
            resend_backoff=self.params.degradation.gossip_resend_backoff,
            telemetry=self.telemetry,
        )
        self.host.register(self.all_gossip)
        self.coordinator = ConfidentialGossipCoordinator(
            pid=self.pid,
            n=self.n,
            params=self.params,
            partition_set=self.partition_set,
            deliver_callback=self.deliver_callback,
            telemetry=self.telemetry,
            # A dedicated label-derived stream: retransmit jitter draws
            # never perturb the gossip/proxy/split streams, so default
            # (knobs-off) runs remain bit-identical.
            rng=self._seed_scope.rng("direct"),
        )
        self.host.register(self.coordinator)
        self._split_rng = self._seed_scope.rng("split")

    # ------------------------------------------------------------------
    # Injection (ConfidentialGossip, Figure 8 lines 11-21)
    # ------------------------------------------------------------------

    def on_inject(self, round_no: int, rumor: Rumor) -> None:
        if not rumor.dest <= frozenset(range(self.n)):
            raise ValueError("rumor destination set contains unknown pids")
        if self.pid in rumor.dest:
            self.coordinator.deliver_local(round_no, rumor.rid, rumor.data, "local")
        if not (rumor.dest - {self.pid}):
            return  # nothing to disseminate
        dline = pipeline_deadline(rumor.deadline, self.params, self.n)
        direct = dline is None or self.params.collusion_forces_direct(self.n)
        if self.telemetry.enabled:
            self.telemetry.emit(
                "rumor_inject",
                round_no,
                rid=rumor.rid,
                src=self.pid,
                dest=sorted(rumor.dest),
                dest_size=len(rumor.dest),
                deadline=rumor.deadline,
                dline=dline,
                direct=direct,
            )
        if direct:
            self.coordinator.direct_send(round_no, rumor)
            return
        self.coordinator.register(round_no, rumor, dline)
        bundle = self._instance(dline, round_no)
        expiry = round_no + rumor.deadline
        fragment_count = 0
        for partition in range(self.partition_set.count):
            fragments = split_rumor(
                rumor,
                partition,
                self.partition_set.num_groups,
                self._split_rng,
                dline,
                expiry,
            )
            my_group = self.partition_set.group_of(partition, self.pid)
            own = fragments[my_group]
            bundle.gossip[partition].inject(
                round_no,
                own,
                deadline=bundle.schedule.gossip_deadline,
                dest=range(self.n),
                uid=own.uid,
            )
            bundle.proxies[partition].distribute(
                round_no, [f for f in fragments if f.group != my_group]
            )
            fragment_count += len(fragments)
        if self.telemetry.enabled:
            self.telemetry.emit(
                "rumor_split",
                round_no,
                rid=rumor.rid,
                partitions=self.partition_set.count,
                groups=self.partition_set.num_groups,
                fragments=fragment_count,
            )

    # ------------------------------------------------------------------
    # Engine phases
    # ------------------------------------------------------------------

    def send_phase(self, round_no: int) -> List[Message]:
        return self.host.collect_sends(round_no)

    def receive_phase(self, round_no: int, inbox: List[Message]) -> None:
        unrouted = self.host.dispatch(round_no, inbox)
        if unrouted:
            for message in unrouted:
                self._ensure_channel(message.channel, round_no)
            stubborn = self.host.dispatch(round_no, unrouted)
            if stubborn:
                raise ValueError(
                    "unroutable channels: {}".format(
                        sorted({m.channel for m in stubborn})
                    )
                )
        self.host.finish_round(round_no)

    # ------------------------------------------------------------------
    # Instance management
    # ------------------------------------------------------------------

    def _instance(self, dline: int, round_no: int) -> InstanceBundle:
        bundle = self.instances.get(dline)
        if bundle is not None:
            return bundle
        schedule = BlockSchedule(dline)
        gossip: List[ContinuousGossip] = []
        proxies: List[ProxyService] = []
        distributions: List[GroupDistributionService] = []
        for partition in range(self.partition_set.count):
            my_group = self.partition_set.group_of(partition, self.pid)
            scope = self.partition_set.members(partition, my_group)
            channel_gg = "gg/{}/{}".format(dline, partition)
            channel_px = "px/{}/{}".format(dline, partition)
            channel_gd = "gd/{}/{}".format(dline, partition)
            gg = ContinuousGossip(
                pid=self.pid,
                n=self.n,
                channel=channel_gg,
                scope=scope,
                rng=self._seed_scope.rng(channel_gg),
                deliver=partial(self._on_group_item, dline, partition),
                service=ServiceTags.GROUP_GOSSIP,
                fanout_scale=self.params.gossip_fanout_scale,
                schedule=self.params.gossip_schedule,
                resend_backoff=self.params.degradation.gossip_resend_backoff,
                telemetry=self.telemetry,
            )
            px = ProxyService(
                pid=self.pid,
                n=self.n,
                channel=channel_px,
                schedule=schedule,
                partition=partition,
                partition_set=self.partition_set,
                params=self.params,
                rng=self._seed_scope.rng(channel_px),
                gossip=gg,
                on_group_fragments=partial(self._on_proxy_return, dline, partition),
                wakeup=self.wakeup,
                telemetry=self.telemetry,
            )
            gd = GroupDistributionService(
                pid=self.pid,
                n=self.n,
                channel=channel_gd,
                schedule=schedule,
                partition=partition,
                partition_set=self.partition_set,
                params=self.params,
                rng=self._seed_scope.rng(channel_gd),
                gossip=gg,
                all_gossip=self.all_gossip,
                on_fragments=self._on_gd_fragments,
                wakeup=self.wakeup,
                telemetry=self.telemetry,
            )
            self.host.register(gg)
            self.host.register(px)
            self.host.register(gd)
            px.catch_up(round_no)
            gd.catch_up(round_no)
            gossip.append(gg)
            proxies.append(px)
            distributions.append(gd)
        bundle = InstanceBundle(
            schedule=schedule,
            gossip=gossip,
            proxies=proxies,
            distributions=distributions,
        )
        self.instances[dline] = bundle
        return bundle

    def _ensure_channel(self, channel: str, round_no: int) -> None:
        parts = channel.split("/")
        if len(parts) != 3 or parts[0] not in ("gg", "px", "gd"):
            raise ValueError("unknown channel {!r}".format(channel))
        try:
            dline = int(parts[1])
            partition = int(parts[2])
        except ValueError:
            raise ValueError("malformed channel {!r}".format(channel))
        if not 0 <= partition < self.partition_set.count:
            raise ValueError("channel {!r} names unknown partition".format(channel))
        if dline < 4 or dline & (dline - 1):
            raise ValueError("channel {!r} names invalid deadline".format(channel))
        self._instance(dline, round_no)

    # ------------------------------------------------------------------
    # Delivery routing between services
    # ------------------------------------------------------------------

    def _on_group_item(
        self, dline: int, partition: int, round_no: int, item: GossipItem
    ) -> None:
        bundle = self.instances[dline]
        payload = item.payload
        if isinstance(payload, Fragment):
            bundle.distributions[partition].add_waiting(round_no, payload)
        elif isinstance(payload, ProxyShare):
            bundle.proxies[partition].on_share(round_no, payload)
        elif isinstance(payload, GDShare):
            bundle.distributions[partition].on_share(round_no, payload)
        else:
            raise TypeError(
                "unexpected GroupGossip payload {!r}".format(type(payload))
            )

    def _on_proxy_return(
        self, dline: int, partition: int, round_no: int, fragments: List[Fragment]
    ) -> None:
        bundle = self.instances[dline]
        for fragment in fragments:
            bundle.distributions[partition].add_waiting(round_no, fragment)

    def _on_gd_fragments(self, round_no: int, fragments: List[Fragment]) -> None:
        for fragment in fragments:
            self.coordinator.on_fragment(round_no, fragment)

    def _on_all_item(self, round_no: int, item: GossipItem) -> None:
        payload = item.payload
        if not hasattr(payload, "hits"):
            raise TypeError(
                "unexpected AllGossip payload {!r}".format(type(payload))
            )
        self.coordinator.on_distribution_share(round_no, payload)


def congos_factory(
    n: int,
    params: Optional[CongosParams] = None,
    seed: int = 0,
    deliver_callback: Optional[DeliverCallback] = None,
    partition_set: Optional[PartitionSet] = None,
    telemetry=None,
) -> Callable[[int], CongosNode]:
    """Build a node factory for :class:`repro.sim.engine.Engine`.

    The partition set and seed hierarchy are shared across all nodes (and
    all restarts), as the model requires.  ``telemetry`` (an
    :class:`repro.obs.instrument.Telemetry`) is shared too — it observes,
    it is not protocol state, so restarts keep emitting into the same
    stream.  The factory is a ``partial`` of :class:`CongosNode`: data,
    so an engine that keeps it for restarts still pickles.
    """
    resolved_params = params if params is not None else CongosParams()
    return partial(
        CongosNode,
        n=n,
        params=resolved_params,
        partition_set=(
            partition_set
            if partition_set is not None
            else build_partition_set(n, resolved_params, seed)
        ),
        seeds=SeedSequence(seed).child("congos"),
        deliver_callback=deliver_callback,
        telemetry=telemetry,
    )
