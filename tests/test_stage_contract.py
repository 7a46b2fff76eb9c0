"""The stage contract: both engines send on the schedule's named rounds.

``repro.sim.clock.BlockSchedule`` names every §5 stage round (DESIGN.md
§5).  On fault-free steady cells, every round with Proxy traffic must be
a named ``PROXY_REQUEST`` or ``PROXY_ACK`` round and every round with
GroupDistribution traffic a named ``GD_SEND`` round, on the object and
the array engine alike, and the two engines must send Proxy traffic on
the same rounds.  GD rounds agree only at dline 64: from dline 128 the
array engine's later-iteration sends follow its census approximation
(DESIGN.md §11), so the sets may differ there.
"""

import dataclasses
import functools

import pytest

from repro.core.config import CongosParams
from repro.fastcore import numpy_available
from repro.harness.runner import run_congos_scenario
from repro.harness.scenarios import steady_scenario
from repro.sim.clock import GD_SEND, PROXY_ACK, PROXY_REQUEST, BlockSchedule
from repro.sim.messages import ServiceTags

# (dline, n, preset): steady cells, 3·dline rounds each.
CELLS = [
    (64, 16, "lean"),
    (64, 32, "default"),
    (128, 16, "default"),
    (128, 32, "lean"),
    (256, 16, "lean"),
    (256, 32, "default"),
]
ENGINES = ["object"] + (
    ["array"]
    if numpy_available()
    else [pytest.param("array", marks=pytest.mark.skip(reason="needs numpy>=2.0"))]
)
needs_array = pytest.mark.skipif(not numpy_available(), reason="needs numpy>=2.0")


@functools.lru_cache(maxsize=None)
def traffic_rounds(dline, n, preset, engine):
    """``{service: rounds with traffic of that service}`` for one run."""
    scenario = steady_scenario(
        n, 3 * dline, 0, deadline=dline, params=CongosParams.preset(preset)
    )
    scenario = dataclasses.replace(scenario, engine=engine)
    stats = run_congos_scenario(scenario).stats
    return {
        service: frozenset(
            r
            for r in range(scenario.rounds)
            if stats.per_round_by_service(r, service)
        )
        for service in (ServiceTags.PROXY, ServiceTags.GROUP_DISTRIBUTION)
    }


def rounds_where(dline, flags, rounds):
    schedule = BlockSchedule(dline)
    return {r for r in rounds if schedule.stages(r) & flags}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("dline, n, preset", CELLS)
def test_proxy_traffic_only_on_request_and_ack_rounds(dline, n, preset, engine):
    rounds = traffic_rounds(dline, n, preset, engine)[ServiceTags.PROXY]
    assert rounds  # the cell exercises the pipeline
    assert rounds_where(dline, PROXY_REQUEST | PROXY_ACK, rounds) == rounds


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("dline, n, preset", CELLS)
def test_gd_traffic_only_on_send_rounds(dline, n, preset, engine):
    rounds = traffic_rounds(dline, n, preset, engine)[
        ServiceTags.GROUP_DISTRIBUTION
    ]
    assert rounds
    assert rounds_where(dline, GD_SEND, rounds) == rounds


@needs_array
@pytest.mark.parametrize("dline, n, preset", CELLS)
def test_engines_send_proxy_traffic_on_the_same_rounds(dline, n, preset):
    assert (
        traffic_rounds(dline, n, preset, "object")[ServiceTags.PROXY]
        == traffic_rounds(dline, n, preset, "array")[ServiceTags.PROXY]
    )


@needs_array
@pytest.mark.parametrize("dline, n, preset", [c for c in CELLS if c[0] == 64])
def test_engines_send_gd_traffic_on_the_same_rounds_at_dline_64(dline, n, preset):
    service = ServiceTags.GROUP_DISTRIBUTION
    assert (
        traffic_rounds(dline, n, preset, "object")[service]
        == traffic_rounds(dline, n, preset, "array")[service]
    )
