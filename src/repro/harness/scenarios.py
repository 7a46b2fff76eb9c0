"""Canonical scenario builders used by tests, examples and benches.

Every scenario leaves a *warmup* (one deadline's worth of rounds with no
injections, so Proxy/GroupDistribution uptime requirements are met and
deliveries go through the pipeline rather than the fallback) and a
*drain* (injections stop early enough that every rumor's deadline falls
inside the run, so the QoD report judges all of them).

Builders name their workload and fault model by
:class:`~repro.adversary.spec.AdversarySpec`, never by closure, so a
scenario is plain data: equal on rebuild, picklable, and its repr says
what it runs.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional, Sequence

from repro.adversary.spec import AdversarySpec
from repro.chaos.spec import FaultSpec
from repro.chaos.targeted import TargetedSpec
from repro.core.config import CongosParams
from repro.core.deadlines import goes_direct
from repro.harness.runner import Scenario
from repro.load.admission import AdmissionPolicy
from repro.load.arrivals import ArrivalSpec

__all__ = [
    "injection_window",
    "open_window",
    "steady_scenario",
    "open_scenario",
    "chaos_scenario",
    "targeted_scenario",
    "direct_scenario",
    "churn_scenario",
    "proxy_killer_scenario",
    "group_killer_scenario",
    "source_killer_scenario",
    "rolling_blackout_scenario",
    "burst_scenario",
    "scripted_burst_scenario",
    "theorem1_scenario",
    "collusion_scenario",
    "BUILDERS",
    "get_builder",
    "builder_name",
    "register_builder",
]


def injection_window(rounds: int, deadline: int) -> tuple:
    """(start, stop) rounds for injections: warmup + drain margins."""
    start = min(deadline, max(1, rounds // 4))
    stop = max(start + 1, rounds - deadline - 4)
    return start, stop


def open_window(rounds: int, max_deadline: int, max_wait: int) -> tuple:
    """(start, stop) rounds for *arrivals* in an open scenario.

    Like :func:`injection_window`, but the drain margin also covers the
    admission queue: an arrival accepted at ``stop - 1`` may wait up to
    ``max_wait`` rounds before injection, and its deadline must still
    fall inside the run so the QoD report judges it.
    """
    start = min(max_deadline, max(1, rounds // 4))
    stop = max(start + 1, rounds - max_deadline - max_wait - 4)
    return start, stop


def open_scenario(
    n: int,
    rounds: int,
    seed: int,
    process: str = "poisson",
    rate: float = 2.0,
    burst_on: int = 16,
    burst_off: int = 48,
    off_rate: float = 0.0,
    period: int = 96,
    dest_size: int = 3,
    zipf_groups: int = 0,
    zipf_s: float = 1.1,
    deadline: int = 64,
    deadlines: Optional[Sequence[int]] = None,
    deadline_weights: Optional[Sequence[float]] = None,
    payload_size: int = 16,
    per_round: Optional[int] = None,
    queue_cap: int = 256,
    max_wait: Optional[int] = None,
    preset: Optional[str] = None,
    failfast: Optional[str] = "confidentiality",
    params: Optional[CongosParams] = None,
    name: str = "open",
) -> Scenario:
    """Open-workload traffic: a seeded arrival process behind admission
    control (E20).

    Arrivals follow ``process`` (``"poisson"``/``"bursty"``/``"diurnal"``
    — see :class:`repro.load.arrivals.ArrivalSpec`) at peak mean ``rate``
    per round, optionally skewed to hotspot destination blocks
    (``zipf_groups``/``zipf_s``) and mixing ``deadlines`` (weighted by
    ``deadline_weights``; ``deadline`` is shorthand for a single-deadline
    mix).  A bounded admission queue (``queue_cap``) levels the stream
    into the per-round injection budget ``per_round`` (default: the
    :meth:`~repro.core.config.CongosParams.injection_budget` core hook),
    shedding arrivals that would wait longer than ``max_wait`` rounds
    (default: half the shortest deadline).  ``preset`` names a
    :meth:`CongosParams.preset` so sweep cells stay JSON-representable;
    an explicit ``params`` object wins.  Confidentiality is fail-fast by
    default — overload may shed, it must never leak.
    """
    if params is not None:
        resolved = params
    elif preset is not None:
        resolved = CongosParams.preset(preset)
    else:
        resolved = CongosParams()
    spec = ArrivalSpec(
        process=process,
        rate=rate,
        burst_on=burst_on,
        burst_off=burst_off,
        off_rate=off_rate,
        period=period,
        dest_size=dest_size,
        zipf_groups=zipf_groups,
        zipf_s=zipf_s,
        deadlines=tuple(deadlines) if deadlines is not None else (deadline,),
        deadline_weights=(
            tuple(deadline_weights) if deadline_weights is not None else None
        ),
        payload_size=payload_size,
    )
    resolved_wait = (
        max_wait if max_wait is not None else max(2, spec.min_deadline // 2)
    )
    policy = AdmissionPolicy(
        per_round=per_round, queue_cap=queue_cap, max_wait=resolved_wait
    )
    budget = (
        per_round if per_round is not None else resolved.injection_budget(n)
    )
    start, stop = open_window(rounds, spec.max_deadline, resolved_wait)
    return Scenario(
        name=name,
        n=n,
        rounds=rounds,
        seed=seed,
        params=resolved,
        workload_factory=AdversarySpec(
            "open",
            dict(n=n, spec=spec, policy=policy, budget=budget,
                 start_round=start, stop_round=stop),
        ),
        failfast=failfast,
    )


def steady_scenario(
    n: int,
    rounds: int,
    seed: int,
    deadline: int = 128,
    rate: int = 1,
    period: int = 4,
    dest_size: int = 4,
    params: Optional[CongosParams] = None,
    name: str = "steady",
) -> Scenario:
    """Fault-free steady traffic: the baseline happy path."""
    resolved = params if params is not None else CongosParams()
    start, stop = injection_window(rounds, deadline)
    return Scenario(
        name=name,
        n=n,
        rounds=rounds,
        seed=seed,
        params=resolved,
        workload_factory=AdversarySpec(
            "steady",
            dict(n=n, rate=rate, period=period, dest_size=dest_size,
                 deadlines=(deadline,), start_round=start, stop_round=stop),
        ),
    )


def chaos_scenario(
    n: int,
    rounds: int,
    seed: int,
    # Above direct_send_threshold by default, so chaos exercises the full
    # proxy/GD/gossip pipeline rather than only direct sends.
    deadline: int = 64,
    rate: int = 1,
    period: int = 4,
    dest_size: int = 4,
    drop: float = 0.0,
    delay: float = 0.0,
    max_delay: int = 4,
    duplicate: float = 0.0,
    reorder: float = 0.0,
    partition_period: int = 0,
    partition_width: int = 0,
    churn: float = 0.0,
    hardened: bool = False,
    failfast: Optional[str] = "confidentiality",
    params: Optional[CongosParams] = None,
    name: str = "chaos",
) -> Scenario:
    """Steady traffic over a faulty network (beyond the paper's model).

    The chaos fault plane drops/delays/duplicates/reorders messages and
    cuts scheduled partitions, all keyed deterministically on ``seed``;
    ``churn`` optionally composes a CRRI crash/restart adversary on top,
    demonstrating that the plane and the paper's adversary stack cleanly.
    ``hardened`` turns on the graceful-degradation layer
    (:attr:`CongosParams.hardened`).  Confidentiality is monitored
    fail-fast by default — loss must never leak ``z`` — while QoD is
    reported, not fatal (it is *expected* to degrade beyond the model;
    pass ``failfast="qod"`` to make misses fatal too).
    """
    resolved = params if params is not None else CongosParams()
    if hardened:
        resolved = dataclasses.replace(resolved, hardened=True)
    base = steady_scenario(
        n, rounds, seed, deadline, rate, period, dest_size, resolved, name
    )
    if churn:
        base.fault_factory = AdversarySpec(
            "churn",
            dict(p_crash=churn, p_restart=0.25, min_alive=max(2, n // 4)),
        )
    spec = FaultSpec(
        drop=drop,
        delay=delay,
        max_delay=max_delay,
        duplicate=duplicate,
        reorder=reorder,
        partition_period=partition_period,
        partition_width=partition_width,
    )
    base.chaos = spec.to_dict()
    base.failfast = failfast
    return base


def targeted_scenario(
    n: int,
    rounds: int,
    seed: int,
    policy: str = "proxy-suppressor",
    per_round: int = 4,
    total: int = 64,
    kind: str = "drop",
    hold: int = 4,
    window: int = 8,
    blind: bool = False,
    track_src: Optional[int] = None,
    retarget: bool = True,
    deadline: Optional[int] = None,
    rate: int = 1,
    period: int = 4,
    dest_size: int = 4,
    drop: float = 0.0,
    delay: float = 0.0,
    max_delay: int = 4,
    duplicate: float = 0.0,
    reorder: float = 0.0,
    partition_period: int = 0,
    partition_width: int = 0,
    churn: float = 0.0,
    hardened: bool = False,
    failfast: Optional[str] = "confidentiality",
    params: Optional[CongosParams] = None,
    name: str = "targeted",
) -> Scenario:
    """Steady traffic under a budgeted rumor-aware adversary (E19).

    Layers a :class:`~repro.chaos.targeted.TargetedFaultPolicy` over the
    (by default null) oblivious chaos spec: the policy watches leak-safe
    routing metadata and spends a per-destination fault budget on the
    tracked rumor's worst-case edges.  ``blind=True`` is the
    matched-budget oblivious baseline — same budget and stage shape,
    rumor-blind targeting.  The deadline defaults to the pipeline path
    (64), except for ``fallback-herder`` which needs the direct-send
    path's acks and defaults to 32; combine that policy with
    ``hardened=True`` for a non-vacuous attack (paper defaults send no
    acks, so there is nothing to herd).
    """
    if deadline is None:
        deadline = 32 if policy == "fallback-herder" else 64
    base = chaos_scenario(
        n,
        rounds,
        seed,
        deadline=deadline,
        rate=rate,
        period=period,
        dest_size=dest_size,
        drop=drop,
        delay=delay,
        max_delay=max_delay,
        duplicate=duplicate,
        reorder=reorder,
        partition_period=partition_period,
        partition_width=partition_width,
        churn=churn,
        hardened=hardened,
        failfast=failfast,
        params=params,
        name=name,
    )
    base.targeted = TargetedSpec(
        policy=policy,
        per_round=per_round,
        total=total,
        kind=kind,
        hold=hold,
        window=window,
        blind=blind,
        track_src=track_src,
        retarget=retarget,
    ).to_dict()
    return base


def direct_scenario(
    n: int,
    rounds: int,
    seed: int,
    # At or below direct_send_threshold (48), so every rumor takes the
    # direct-send route and nothing rides the proxy/GD/gossip pipeline.
    deadline: int = 32,
    rate: int = 1,
    period: int = 2,
    dest_size: int = 4,
    drop: float = 0.0,
    delay: float = 0.0,
    max_delay: int = 4,
    duplicate: float = 0.0,
    reorder: float = 0.0,
    hardened: bool = False,
    failfast: Optional[str] = "confidentiality",
    params: Optional[CongosParams] = None,
    name: str = "direct",
) -> Scenario:
    """Short-deadline traffic over a faulty network: the direct-send path
    in isolation (E16).

    Every injected rumor's deadline is at or below
    ``direct_send_threshold``, so the run exercises *only* the source's
    direct sends — one unacknowledged copy per destination at default
    parameters, or the ack/retransmit/k-copy reliability layer under
    ``hardened`` (:attr:`CongosParams.hardened`).  Builders
    reject deadlines that would route through the pipeline, so matrix
    cells measure exactly the path they claim to.
    """
    resolved = params if params is not None else CongosParams()
    if hardened:
        resolved = dataclasses.replace(resolved, hardened=True)
    if not goes_direct(deadline, resolved, n):
        raise ValueError(
            "deadline {} routes through the pipeline (threshold {}); the "
            "direct scenario must stay on the direct-send path".format(
                deadline, resolved.direct_send_threshold
            )
        )
    return chaos_scenario(
        n,
        rounds,
        seed,
        deadline=deadline,
        rate=rate,
        period=period,
        dest_size=dest_size,
        drop=drop,
        delay=delay,
        max_delay=max_delay,
        duplicate=duplicate,
        reorder=reorder,
        failfast=failfast,
        params=resolved,
        name=name,
    )


def churn_scenario(
    n: int,
    rounds: int,
    seed: int,
    deadline: int = 128,
    p_crash: float = 0.01,
    p_restart: float = 0.2,
    rate: int = 1,
    period: int = 4,
    dest_size: int = 4,
    immune: Sequence[int] = (),
    params: Optional[CongosParams] = None,
    name: str = "churn",
) -> Scenario:
    """Random crash/restart churn on top of steady traffic."""
    base = steady_scenario(
        n, rounds, seed, deadline, rate, period, dest_size, params, name
    )
    base.fault_factory = AdversarySpec(
        "churn",
        dict(p_crash=p_crash, p_restart=p_restart, immune=immune,
             min_alive=max(2, n // 4)),
    )
    return base


def proxy_killer_scenario(
    n: int,
    rounds: int,
    seed: int,
    deadline: int = 128,
    budget_per_round: Optional[int] = None,
    total_budget: Optional[int] = None,
    restart_after: Optional[int] = None,
    params: Optional[CongosParams] = None,
    name: str = "proxy-killer",
) -> Scenario:
    """The adaptive proxy-killing attack of Section 1 / Lemma 8.

    Budgets default to system-size-proportional values with restarts, so
    the attack is sustained pressure rather than instant extinction.
    """
    base = steady_scenario(
        n, rounds, seed, deadline, rate=1, period=8, dest_size=3, params=params, name=name
    )
    per_round = budget_per_round if budget_per_round is not None else max(1, n // 8)
    total = total_budget if total_budget is not None else max(2, n // 3)
    revive = restart_after if restart_after is not None else deadline // 2
    base.fault_factory = AdversarySpec(
        "proxy-killer",
        dict(budget_per_round=per_round, total_budget=total, restart_after=revive),
    )
    return base


def group_killer_scenario(
    n: int,
    rounds: int,
    seed: int,
    deadline: int = 128,
    partition: int = 0,
    group: int = 0,
    crash_round: Optional[int] = None,
    params: Optional[CongosParams] = None,
    name: str = "group-killer",
) -> Scenario:
    """Wipe out one group of one partition mid-run (Lemma 5's motivation).

    The sources/destinations are not spared on purpose: admissibility does
    the bookkeeping, and the surviving partitions must carry the rest.
    """
    base = steady_scenario(
        n, rounds, seed, deadline, rate=1, period=8, dest_size=3, params=params, name=name
    )
    when = crash_round if crash_round is not None else rounds // 2
    # The members are resolved from the run's partition set at call time.
    base.fault_factory = AdversarySpec(
        "group-killer",
        dict(partition=partition, group=group, crash_round=when,
             restart_round=min(rounds - 1, when + deadline)),
    )
    return base


def source_killer_scenario(
    n: int,
    rounds: int,
    seed: int,
    deadline: int = 128,
    kill_probability: float = 0.5,
    params: Optional[CongosParams] = None,
    name: str = "source-killer",
) -> Scenario:
    """Sources die right after injecting (inadmissible rumors)."""
    base = steady_scenario(
        n, rounds, seed, deadline, rate=1, period=8, dest_size=3, params=params, name=name
    )
    base.fault_factory = AdversarySpec(
        "source-killer", dict(kill_probability=kill_probability)
    )
    return base


def rolling_blackout_scenario(
    n: int,
    rounds: int,
    seed: int,
    deadline: int = 128,
    blocks: int = 4,
    immune: Sequence[int] = (0, 1),
    params: Optional[CongosParams] = None,
    name: str = "rolling-blackout",
) -> Scenario:
    """A quarter of the system is always down, rotating every period.

    Only ``immune`` processes stay continuously alive; traffic is between
    them, so their rumors remain admissible throughout.
    """
    resolved = params if params is not None else CongosParams()
    start, stop = injection_window(rounds, deadline)
    immune_list = list(immune)
    return Scenario(
        name=name,
        n=n,
        rounds=rounds,
        seed=seed,
        params=resolved,
        workload_factory=AdversarySpec(
            "group-traffic",
            dict(participants=immune_list, deadline=deadline, period=8,
                 start_round=start, stop_round=stop),
        ),
        fault_factory=AdversarySpec(
            "rolling-blackout",
            dict(n=n, blocks=blocks, period=max(blocks * 4, deadline // 2),
                 immune=immune_list),
        ),
    )


def burst_scenario(
    n: int,
    rounds: int,
    seed: int,
    deadline: int = 128,
    bursts: int = 2,
    dest_size: int = 4,
    params: Optional[CongosParams] = None,
    name: str = "burst",
) -> Scenario:
    """Every process injects simultaneously, a few times."""
    resolved = params if params is not None else CongosParams()
    start, stop = injection_window(rounds, deadline)
    gap = max(1, (stop - start) // max(1, bursts))
    burst_rounds = [start + i * gap for i in range(bursts)]
    return Scenario(
        name=name,
        n=n,
        rounds=rounds,
        seed=seed,
        params=resolved,
        workload_factory=AdversarySpec(
            "burst",
            dict(n=n, burst_rounds=burst_rounds, dest_size=dest_size,
                 deadline=deadline),
        ),
    )


def scripted_burst_scenario(
    n: int,
    rounds: int,
    seed: int,
    deadline: int = 128,
    sources: int = 8,
    inject_round: Optional[int] = None,
    offsets: Sequence[int] = (5, 9),
    params: Optional[CongosParams] = None,
    name: str = "scripted-burst",
) -> Scenario:
    """A fixed-size simultaneous burst with deterministic destinations.

    ``sources`` processes inject at the same round, each to the two
    destinations ``(src + offsets[i]) % n`` — a constant in-flight rumor
    population, which is what deadline-dependence experiments (E6b) need:
    a fixed *arrival rate* would conflate longer deadlines with more
    concurrent rumors.
    """
    resolved = params if params is not None else CongosParams()
    when = (
        inject_round
        if inject_round is not None
        else max(1, min(2 * deadline, rounds // 2))
    )
    script = [
        (when, src, deadline, {(src + offset) % n for offset in offsets})
        for src in range(sources)
    ]
    return Scenario(
        name=name,
        n=n,
        rounds=rounds,
        seed=seed,
        params=resolved,
        workload_factory=AdversarySpec("scripted", dict(script=script)),
    )


def theorem1_scenario(
    n: int,
    rounds: int,
    seed: int,
    c: int = 8,
    dmax: int = 128,
    inject_round: Optional[int] = None,
    params: Optional[CongosParams] = None,
    name: str = "theorem1",
) -> Scenario:
    """The oblivious lower-bound layout of Theorems 1/12."""
    resolved = params if params is not None else CongosParams()
    when = inject_round if inject_round is not None else min(dmax, rounds // 4)
    return Scenario(
        name=name,
        n=n,
        rounds=rounds,
        seed=seed,
        params=resolved,
        workload_factory=AdversarySpec(
            "theorem1", dict(n=n, c=c, dmax=dmax, inject_round=when)
        ),
    )


def collusion_scenario(
    n: int,
    rounds: int,
    seed: int,
    tau: int,
    deadline: int = 128,
    rate: int = 1,
    period: int = 8,
    dest_size: int = 4,
    params: Optional[CongosParams] = None,
    name: Optional[str] = None,
) -> Scenario:
    """Steady traffic under the collusion-tolerant variant (Section 6.2)."""
    resolved = (
        params.with_tau(tau) if params is not None else CongosParams(tau=tau)
    )
    return steady_scenario(
        n=n,
        rounds=rounds,
        seed=seed,
        deadline=deadline,
        rate=rate,
        period=period,
        dest_size=dest_size,
        params=resolved,
        name=name if name is not None else "collusion-tau{}".format(tau),
    )


# ----------------------------------------------------------------------
# Builder registry
# ----------------------------------------------------------------------
#
# The exec subsystem ships scenarios across process boundaries as
# *names* (a builder callable is not reliably picklable); everything a
# RunSpec can run must be registered here.  The CLI's ``run``/``sweep``
# commands and ``scenarios`` listing read the same table.

ScenarioBuilder = Callable[..., Scenario]

BUILDERS: Dict[str, ScenarioBuilder] = {
    "open": open_scenario,
    "steady": steady_scenario,
    "chaos": chaos_scenario,
    "targeted": targeted_scenario,
    "direct": direct_scenario,
    "churn": churn_scenario,
    "proxy-killer": proxy_killer_scenario,
    "group-killer": group_killer_scenario,
    "source-killer": source_killer_scenario,
    "rolling-blackout": rolling_blackout_scenario,
    "burst": burst_scenario,
    "scripted-burst": scripted_burst_scenario,
    "theorem1": theorem1_scenario,
    "collusion": collusion_scenario,
}


def register_builder(
    name: str, builder: ScenarioBuilder, replace: bool = False
) -> None:
    """Add a builder to the registry (tests and extensions hook in here)."""
    if not replace and name in BUILDERS and BUILDERS[name] is not builder:
        raise ValueError("builder {!r} is already registered".format(name))
    BUILDERS[name] = builder


def get_builder(name: str) -> ScenarioBuilder:
    try:
        return BUILDERS[name]
    except KeyError:
        raise KeyError(
            "unknown scenario builder {!r}; registered: {}".format(
                name, ", ".join(sorted(BUILDERS))
            )
        ) from None


def builder_name(builder: ScenarioBuilder) -> str:
    """Reverse registry lookup (identity), for callable convenience APIs."""
    for name, registered in BUILDERS.items():
        if registered is builder:
            return name
    raise KeyError(
        "builder {!r} is not registered in repro.harness.scenarios.BUILDERS; "
        "register it (register_builder) or pass its registry name".format(builder)
    )
