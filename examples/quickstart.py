#!/usr/bin/env python3
"""Quickstart: run CONGOS, watch a confidential rumor get delivered.

Sets up a 16-process synchronous system, injects one confidential rumor
(and some background traffic), runs the CONGOS pipeline, and then asks
the two auditors the paper's two questions:

* Quality of Delivery — did every admissible destination learn the rumor
  by its deadline?
* Confidentiality  — did anyone outside the destination set learn it, or
  even collect enough fragments to reconstruct it?

Run:  python examples/quickstart.py
"""

from repro.adversary.base import ComposedAdversary
from repro.adversary.injection import ScriptedWorkload, SteadyWorkload
from repro.audit.confidentiality import ConfidentialityAuditor
from repro.audit.delivery import DeliveryAuditor
from repro.core.config import CongosParams
from repro.core.congos import build_partition_set, congos_factory
from repro.harness.report import banner, format_kv, format_table
from repro.sim.engine import Engine
from repro.sim.messages import plaintext_atom
from repro.sim.rng import derive_rng

N = 16
ROUNDS = 360
DEADLINE = 64
SECRET = b"the launch code is 0x5EC12E7"
DESTINATIONS = {3, 7, 11}
SOURCE = 0


def main() -> None:
    params = CongosParams()
    partitions = build_partition_set(N, params, seed=2024)

    # Auditors sit *outside* the protocol: they watch every delivered
    # message and every local delivery.
    delivery = DeliveryAuditor()
    confidentiality = ConfidentialityAuditor(
        num_partitions=partitions.count, num_groups=partitions.num_groups
    )

    factory = congos_factory(
        N,
        params=params,
        seed=2024,
        deliver_callback=delivery.record_delivery,
        partition_set=partitions,
    )

    # Our confidential rumor, plus background chatter from other nodes.
    our_rumor = ScriptedWorkload(
        [(DEADLINE, SOURCE, DEADLINE, DESTINATIONS, SECRET)],
        derive_rng(1, "ours"),
    )
    background = SteadyWorkload(
        N,
        derive_rng(1, "background"),
        rate=1,
        period=8,
        dest_size=3,
        deadlines=(DEADLINE,),
        start_round=DEADLINE + 4,
        stop_round=ROUNDS - DEADLINE - 8,
        seq_start=1_000_000,  # keep rumor ids disjoint from ours
    )

    engine = Engine(
        N,
        factory,
        ComposedAdversary([our_rumor, background]),
        observers=[delivery, confidentiality],
        seed=2024,
    )

    print(banner("CONGOS quickstart: n={}, {} rounds".format(N, ROUNDS)))
    engine.run(ROUNDS)

    rid = delivery.injected_rid(0)
    print("\nOur rumor {} -> destinations {}:".format(rid, sorted(DESTINATIONS)))
    rows = []
    for q in sorted(DESTINATIONS):
        entry = delivery.deliveries.get((rid, q))
        rows.append(
            [
                q,
                "yes" if entry else "NO",
                entry[0] if entry else "-",
                entry[2] if entry else "-",
                "intact" if entry and entry[1] == SECRET else "-",
            ]
        )
    print(format_table(["destination", "delivered", "round", "path", "data"], rows))

    report = delivery.report(engine)
    print("\n" + format_kv(list(report.summary().items()), title="Quality of Delivery"))

    print("\n" + format_kv(
        list(confidentiality.summary().items()), title="Confidentiality audit"
    ))
    leaks = sorted(
        confidentiality.holders(plaintext_atom(rid))
        & confidentiality.outsiders(rid, N)
    )
    min_coalition = confidentiality.min_coalition_size(rid, N)
    print("\nOutsiders who learned the secret: {}".format(leaks or "none"))
    print(
        "Smallest outsider coalition that could reconstruct it: {}".format(
            min_coalition if min_coalition is not None else "none possible"
        )
    )

    print("\n" + format_kv(
        sorted(engine.stats.by_service().items()),
        title="Messages by service (total {})".format(engine.stats.total),
    ))

    assert report.satisfied, "QoD violated!"
    assert confidentiality.is_clean(), "confidentiality violated!"
    print("\nAll good: delivered on time, nobody else learned a thing.")


if __name__ == "__main__":
    main()
