"""Tests for repro.sim.metrics: per-round message accounting."""

import pytest

from repro.sim.messages import ServiceTags
from repro.sim.metrics import MessageStats

from conftest import mk_message


class TestRecording:
    def test_totals(self):
        stats = MessageStats()
        stats.record_send(0, mk_message(size=2))
        stats.record_send(0, mk_message(size=3))
        assert stats.total == 2
        assert stats.total_size == 5

    def test_per_round(self):
        stats = MessageStats()
        stats.record_send(3, mk_message())
        stats.record_send(3, mk_message())
        stats.record_send(4, mk_message())
        assert stats.per_round(3) == 2
        assert stats.per_round(4) == 1
        assert stats.per_round(5) == 0

    def test_by_service(self):
        stats = MessageStats()
        stats.record_send(0, mk_message(service=ServiceTags.PROXY))
        stats.record_send(0, mk_message(service=ServiceTags.PROXY))
        stats.record_send(1, mk_message(service=ServiceTags.ALL_GOSSIP))
        assert stats.by_service() == {ServiceTags.PROXY: 2, ServiceTags.ALL_GOSSIP: 1}
        assert stats.service_total(ServiceTags.PROXY) == 2
        assert stats.per_round_by_service(0, ServiceTags.PROXY) == 2

    def test_filtered_counter(self):
        stats = MessageStats()
        stats.record_filtered()
        stats.record_filtered(4)
        assert stats.filtered == 5


class TestMaxPerRound:
    def test_empty(self):
        assert MessageStats().max_per_round() == 0

    def test_overall_max(self):
        stats = MessageStats()
        for _ in range(5):
            stats.record_send(0, mk_message())
        stats.record_send(1, mk_message())
        assert stats.max_per_round() == 5

    def test_service_restricted_max(self):
        """Lemma 7 excludes gossip traffic from the Proxy/GD bound."""
        stats = MessageStats()
        for _ in range(10):
            stats.record_send(0, mk_message(service=ServiceTags.GROUP_GOSSIP))
        stats.record_send(0, mk_message(service=ServiceTags.PROXY))
        for _ in range(3):
            stats.record_send(1, mk_message(service=ServiceTags.PROXY))
        restricted = stats.max_per_round(
            services=[ServiceTags.PROXY, ServiceTags.GROUP_DISTRIBUTION]
        )
        assert restricted == 3
        assert stats.max_per_round() == 11


class TestAggregates:
    def test_mean_per_round_over_observed(self):
        stats = MessageStats()
        stats.record_send(0, mk_message())
        stats.record_send(0, mk_message())
        stats.record_send(5, mk_message())
        assert stats.mean_per_round() == pytest.approx(1.5)

    def test_series(self):
        stats = MessageStats()
        stats.record_send(2, mk_message())
        assert stats.series(0, 3) == [0, 0, 1, 0]

    def test_summary_keys(self):
        summary = MessageStats().summary()
        assert set(summary) >= {"total", "max_per_round", "by_service"}
