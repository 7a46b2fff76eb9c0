"""The array engine's gossip spread against the loop it replaced.

``ArrayEngine._spread_channel`` scatters a fresh-holder mask only for the
items some scope member still lacks, and gathers the ``(items, senders)``
sending matrix only for the rows something reads.  The reference here is
the loop the engine ran before: one gather of every row, the border tally
read from it, and one scatter of every item's reach.  Both must leave the
same holders, stage the same deliveries in the same order, tally the same
border messages and leave the gossip stream in the same state.

Needs the ``repro[fast]`` extra (skips without numpy).
"""

import dataclasses
from types import SimpleNamespace

import pytest

np = pytest.importorskip("numpy", minversion="2.0")

from hypothesis import example, given, settings, strategies as st

from repro.core.config import CongosParams
from repro.core.congos import build_partition_set
from repro.fastcore import bitset
from repro.fastcore.engine import (
    DSHARE, FRAG, GDCENSUS, PXSHARE, ArrayEngine, _Channel, _Item,
)
from repro.fastcore.kernels import sample_targets_excluding_self
from repro.harness.runner import run_congos_scenario
from repro.harness.scenarios import steady_scenario
from repro.sim.messages import ServiceTags

ROUND = 40


class _Borders:
    """Records each border tally the spread hands the auditor."""

    def __init__(self):
        self.tallies = []

    def add_border(self, count):
        self.tallies.append(int(count))


class _EveryItemSpread(ArrayEngine):
    """The spread as it ran before: every row gathered, every item's reach
    scattered (the observer-free branch; lowering is held by the pinned
    fan-out stream in test_fastcore_engine.py)."""

    def _spread_channel(self, round_no, channel):
        channel.items = [i for i in channel.items if i.expiry >= round_no]
        live = [
            i for i in channel.items
            if i.start <= round_no and round_no - i.born <= channel.horizon
        ]
        if not live or channel.k <= 0:
            return
        holders = np.stack([item.holders for item in live])
        senders = bitset.to_indices(np.bitwise_or.reduce(holders, axis=0), self.n)
        m = len(senders)
        if not m:
            return
        weights = np.fromiter((item.weight for item in live), np.int64, len(live))
        size = channel.k * int(
            weights @ np.bitwise_count(holders).sum(axis=1, dtype=np.int64)
        )
        self._tally(channel.service, m * channel.k, size)
        if channel.all_to_all:
            for item in live:
                self._spread_all_to_all(channel, item)
            return
        targets = sample_targets_excluding_self(
            self._rng_gossip, channel.scope_idx, channel.pos_of[senders], channel.k
        )
        sending = bitset.test_bits(holders, senders)
        self._every_row_borders(live, sending, senders, targets)
        for item, rows in zip(live, sending):
            fresh = bitset.andnot(
                bitset.from_indices(targets[rows].ravel(), self.n), item.holders
            )
            if fresh.any():
                bitset.union_into(item.holders, fresh)
                self._spread_deliveries.append((item, fresh))

    def _every_row_borders(self, live, sending, senders, targets):
        item_rows, allowed = [], []
        for i, item in enumerate(live):
            if item.kind == FRAG:
                states = (item.content,)
            elif item.kind == PXSHARE:
                states = item.content
            else:
                continue
            for state in states:
                item_rows.append(i)
                allowed.append(state.allowed)
        if not item_rows:
            return
        allowed_bits = bitset.to_flags(np.stack(allowed))
        row, col = np.nonzero(sending[item_rows] & (allowed_bits[:, senders] != 0))
        inside = allowed_bits[row[:, None], targets[col]]
        self.auditor.add_border(inside.size - np.count_nonzero(inside))


# One item: (kind, scope holding, holds pids outside the scope, live).
_ITEM = st.tuples(
    st.sampled_from([FRAG, PXSHARE, DSHARE, GDCENSUS]),
    st.sampled_from(["all", "some", "none"]),
    st.booleans(),
    st.booleans(),
)


@st.composite
def _spread_case(draw):
    """A channel — a scope of at most 193 pids samples exactly, a larger
    one by rejection — plus outsiders, a fanout scale, a seed and items."""
    exact = draw(st.booleans())
    scope = draw(st.integers(2, 193) if exact else st.integers(194, 320))
    return (
        scope,
        draw(st.integers(0, 40)),
        draw(st.sampled_from([0.5, 1.0, 2.0])),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.lists(_ITEM, min_size=1, max_size=6)),
    )


def _build(case, engine_class):
    """The case's engine and channel, every mask drawn from its seed."""
    scope_size, outside, scale, seed, specs = case
    n = scope_size + outside
    rng = np.random.default_rng(seed)
    scope_idx = np.sort(rng.choice(n, size=scope_size, replace=False))
    others = np.setdiff1d(np.arange(n), scope_idx)
    params = CongosParams.preset("lean")
    engine = engine_class(
        n, params, build_partition_set(n, params, 0), seed, None,
        lambda *_: None, _Borders(),
    )
    channel = _Channel(scope_idx, n, scale, ServiceTags.GROUP_GOSSIP, "case")

    def subset(pool):
        return pool[rng.random(len(pool)) < rng.uniform(0.1, 0.9)]

    def state():
        # Part of the scope (or none of it) and maybe some outsiders.
        return SimpleNamespace(allowed=bitset.from_indices(
            np.concatenate([subset(scope_idx), subset(others)]), n
        ))

    for kind, holding, held_outside, live in specs:
        held = {"all": scope_idx, "some": subset(scope_idx), "none": scope_idx[:0]}
        members = held[holding]
        if held_outside and len(others):
            members = np.concatenate([members, subset(others)])
        born = ROUND - int(rng.integers(0, channel.horizon + 1))
        start, expiry = born, ROUND + int(rng.integers(0, 8))
        if not live:  # stale, not started yet, or expired
            born, start, expiry = [
                (ROUND - channel.horizon - 1, born, expiry),
                (born, ROUND + 1, expiry),
                (born, born, ROUND - 1),
            ][int(rng.integers(0, 3))]
        if kind == FRAG:
            content = state()
        elif kind == PXSHARE:  # a cohort carries one or more rumors
            content = [state() for _ in range(1 + int(rng.integers(0, 3)))]
        else:
            content = None
        channel.items.append(_Item(
            kind, born, start, expiry, 1 + int(rng.integers(0, 5)),
            bitset.from_indices(members, n), content,
        ))
    return engine, channel


def _spread(case, engine_class):
    engine, channel = _build(case, engine_class)
    items = list(channel.items)
    engine._spread_channel(ROUND, channel)
    index = {id(item): i for i, item in enumerate(items)}
    return (
        [item.holders for item in items],
        [(index[id(item)], fresh) for item, fresh in engine._spread_deliveries],
        engine.auditor.tallies,
        (engine._count, engine._size, engine._by_service),
        engine._rng_gossip.bit_generator.state,
    )


@settings(max_examples=120, deadline=None)
@given(_spread_case())
# A saturated fragment carrier beside an open item: the carrier's border
# sends count although it gains no holder.
@example((40, 8, 1.0, 5, [(FRAG, "all", True, True), (DSHARE, "some", False, True)]))
# One open item: it holds every sender, yet the scope does not hold it.
@example((60, 0, 1.0, 9, [(GDCENSUS, "some", False, True)]))
@example((250, 16, 1.0, 2, [(PXSHARE, "all", True, True), (FRAG, "some", True, True)]))
def test_spread_matches_the_every_item_loop(case):
    holders, deliveries, borders, tally, rng_state = _spread(case, ArrayEngine)
    ref_holders, ref_deliveries, ref_borders, ref_tally, ref_rng = _spread(
        case, _EveryItemSpread
    )
    assert len(holders) == len(ref_holders)
    for got, want in zip(holders, ref_holders):
        assert np.array_equal(got, want)
    assert [i for i, _ in deliveries] == [i for i, _ in ref_deliveries]
    for (_, got), (_, want) in zip(deliveries, ref_deliveries):
        assert np.array_equal(got, want)
    assert borders == ref_borders
    assert tally == ref_tally
    assert rng_state == ref_rng


def test_a_saturated_item_does_no_reach_work(monkeypatch):
    """The spread scatters a reach mask only for an item some scope member
    still lacks: no more ``from_indices`` calls than open live item-rounds
    on the sampled channels, while saturated ones abound."""
    spread, scatter = ArrayEngine._spread_channel, bitset.from_indices
    seen = {"inside": False, "calls": 0, "open": 0, "saturated": 0}

    def counted(indices, n):
        seen["calls"] += seen["inside"]
        return scatter(indices, n)

    def spread_channel(self, round_no, channel):
        if not channel.all_to_all and channel.k > 0:
            for item in channel.items:
                if item.start <= round_no <= item.expiry and (
                    round_no - item.born <= channel.horizon
                ):
                    lacking = bitset.andnot(channel.scope_mask, item.holders).any()
                    seen["open" if lacking else "saturated"] += 1
        seen["inside"] = True
        try:
            spread(self, round_no, channel)
        finally:
            seen["inside"] = False

    monkeypatch.setattr(bitset, "from_indices", counted)
    monkeypatch.setattr(ArrayEngine, "_spread_channel", spread_channel)
    scenario = steady_scenario(
        n=256, rounds=96, seed=0, deadline=64, rate=1, period=4,
        params=CongosParams.preset("lean"), name="fastcore-spread-saturation",
    )
    result = run_congos_scenario(dataclasses.replace(scenario, engine="array"))
    assert result.qod.satisfied
    assert seen["saturated"] > 0 and 0 < seen["calls"] <= seen["open"]
