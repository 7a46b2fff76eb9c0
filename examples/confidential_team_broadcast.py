#!/usr/bin/env python3
"""The paper's motivating scenario: sharing a blueprint with colleagues,
not with competitors (Section 1).

A 24-process network hosts three organisations:

* **AcmeCorp** engineers (pids 0-7) who circulate design blueprints
  among themselves;
* **BetaInc** engineers (pids 8-15) doing the same;
* a pool of **contractors** (pids 16-23) everyone routes traffic through.

Every process relays *fragments* for everyone else — that is what makes
the dissemination fast — yet the audit shows that no BetaInc process (and
no contractor coalition of bounded size) can reconstruct an AcmeCorp
blueprint, and vice versa.

Run:  python examples/confidential_team_broadcast.py
"""

from repro.adversary.base import ComposedAdversary
from repro.adversary.collusion import GreedyCoalition
from repro.adversary.injection import ScriptedWorkload
from repro.audit.confidentiality import ConfidentialityAuditor
from repro.audit.delivery import DeliveryAuditor
from repro.core.config import CongosParams
from repro.core.congos import build_partition_set, congos_factory
from repro.harness.report import banner, format_table
from repro.sim.engine import Engine
from repro.sim.messages import plaintext_atom
from repro.sim.rng import derive_rng

N = 24
DEADLINE = 64
ROUNDS = 420
TAU = 2  # tolerate pairs of curious processes pooling what they saw

ACME = list(range(0, 8))
BETA = list(range(8, 16))
CONTRACTORS = list(range(16, 24))


def build_script():
    """Each org broadcasts a few documents internally."""
    script = []
    round_no = DEADLINE + 16
    for index in range(4):
        acme_src = ACME[index % len(ACME)]
        beta_src = BETA[index % len(BETA)]
        script.append(
            (
                round_no,
                acme_src,
                DEADLINE,
                set(ACME) - {acme_src},
                b"ACME blueprint #%d" % index,
            )
        )
        script.append(
            (
                round_no + 4,
                beta_src,
                DEADLINE,
                set(BETA) - {beta_src},
                b"BETA roadmap #%d" % index,
            )
        )
        round_no += 24
    return script


def main() -> None:
    params = CongosParams(tau=TAU, collusion_direct_factor=16.0)
    partitions = build_partition_set(N, params, seed=7)
    delivery = DeliveryAuditor()
    confidentiality = ConfidentialityAuditor(
        num_partitions=partitions.count, num_groups=partitions.num_groups
    )
    factory = congos_factory(
        N,
        params=params,
        seed=7,
        deliver_callback=delivery.record_delivery,
        partition_set=partitions,
    )
    workload = ScriptedWorkload(build_script(), derive_rng(7, "docs"))
    engine = Engine(
        N,
        factory,
        ComposedAdversary([workload]),
        observers=[delivery, confidentiality],
        seed=7,
    )

    print(banner("Confidential team broadcast (tau={} collusion tolerance)".format(TAU)))
    print(
        "AcmeCorp: {}\nBetaInc:  {}\nContract: {}".format(ACME, BETA, CONTRACTORS)
    )
    engine.run(ROUNDS)

    report = delivery.report(engine)
    rows = []
    for rid, rumor in sorted(delivery.rumors.items()):
        org = "Acme" if rid.src in ACME else "Beta"
        delivered = sum(
            1 for q in rumor.dest if (rid, q) in delivery.deliveries
        )
        # Who outside the org saw the plaintext?
        leaks = sorted(
            confidentiality.holders(plaintext_atom(rid))
            - confidentiality.allowed_set(rid)
        )
        min_coalition = confidentiality.min_coalition_size(rid, N)
        rows.append(
            [
                str(rid),
                org,
                "{}/{}".format(delivered, len(rumor.dest)),
                leaks or "none",
                min_coalition if min_coalition is not None else "impossible",
            ]
        )
    print()
    print(
        format_table(
            ["rumor", "org", "delivered", "plaintext leaks", "min reconstructing coalition"],
            rows,
        )
    )

    findings = confidentiality.check_coalitions(GreedyCoalition(), tau=TAU, n=N)
    breached = [f for f in findings if f.reconstructs]
    print(
        "\nGreedy {}-coalitions (adaptive worst case): {} of {} rumors "
        "reconstructible".format(TAU, len(breached), len(findings))
    )
    print("Quality of delivery: {}".format(report.summary()))

    assert report.satisfied
    assert confidentiality.is_clean()
    assert not breached
    print(
        "\nBlueprints crossed the whole network as fragments; neither the "
        "rival org nor any pair of curious relays could read them."
    )


if __name__ == "__main__":
    main()
