"""Tests for the graceful-degradation knobs: defaults reproduce the
paper-exact behavior bit for bit, hardened mode stays correct and clean."""

import random

import pytest

from repro.core.config import CongosParams
from repro.core.confidential_gossip import CachedRumor
from repro.gossip.continuous import ContinuousGossip
from repro.harness.runner import run_congos_scenario
from repro.harness.scenarios import chaos_scenario, steady_scenario

from conftest import mk_rumor


class TestParams:
    def test_defaults_are_paper_exact(self):
        params = CongosParams()
        assert params.proxy_retransmit == 0
        assert params.gd_redundancy == 1
        assert params.fallback_early_fraction == 1.0
        assert params.gossip_resend_backoff is False

    def test_hardened_preset(self):
        hardened = CongosParams().hardened()
        assert hardened.proxy_retransmit == 2
        assert hardened.gd_redundancy == 2
        assert hardened.fallback_early_fraction == 0.75
        assert hardened.gossip_resend_backoff is True

    def test_hardened_accepts_overrides(self):
        hardened = CongosParams().hardened(proxy_retransmit=5)
        assert hardened.proxy_retransmit == 5
        assert hardened.gd_redundancy == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            CongosParams(proxy_retransmit=-1)
        with pytest.raises(ValueError):
            CongosParams(gd_redundancy=0)
        with pytest.raises(ValueError):
            CongosParams(fallback_early_fraction=0.0)
        with pytest.raises(ValueError):
            CongosParams(fallback_early_fraction=1.5)


class TestEarlyFallback:
    def cached(self, fraction, deadline=64, injected_at=10):
        return CachedRumor(
            rumor=mk_rumor(deadline=deadline),
            dline=64,
            injected_at=injected_at,
            fallback_fraction=fraction,
        )

    def test_default_fraction_is_deadline_exact(self):
        assert self.cached(1.0).fallback_round == 10 + 64

    def test_early_fraction_shoots_sooner(self):
        assert self.cached(0.75).fallback_round == 10 + 48

    def test_fraction_rounds_up_and_stays_positive(self):
        assert self.cached(0.5, deadline=3).fallback_round == 10 + 2
        assert self.cached(0.01, deadline=3).fallback_round == 10 + 1


class TestResendBackoff:
    @staticmethod
    def sending_ages(horizon, last_age, **kwargs):
        """Ages at which a lone item injected in round 0 is (re)sent."""
        gossip = ContinuousGossip(
            pid=0, n=4, channel="t/backoff", scope=range(4),
            rng=random.Random(0), resend_horizon=horizon, **kwargs,
        )
        gossip.inject(0, payload="p", deadline=last_age, dest=range(4))
        return [
            age for age in range(1, last_age + 1) if gossip.send_phase(age)
        ]

    def test_power_of_two_offsets_past_horizon(self):
        ages = self.sending_ages(8, 40, resend_backoff=True)
        assert [age for age in ages if age > 8] == [9, 10, 12, 16, 24, 40]

    def test_never_due_within_horizon(self):
        # Within the horizon backoff changes nothing: every round sends,
        # with or without it; past it only backoff sends at all.
        assert self.sending_ages(8, 8, resend_backoff=True) == list(range(1, 9))
        assert self.sending_ages(8, 40) == list(range(1, 9))


class TestDefaultPathBitIdentity:
    def test_explicit_defaults_match_implicit(self):
        # Guards against drift: spelling the degradation knobs out at
        # their defaults must reproduce the exact same run.
        implicit = run_congos_scenario(steady_scenario(8, 120, 0, deadline=16))
        explicit = run_congos_scenario(
            steady_scenario(
                8, 120, 0, deadline=16,
                params=CongosParams(
                    proxy_retransmit=0,
                    gd_redundancy=1,
                    fallback_early_fraction=1.0,
                    gossip_resend_backoff=False,
                ),
            )
        )
        assert implicit.summary() == explicit.summary()


class TestHardenedRuns:
    def test_hardened_reliable_run_stays_correct(self):
        default = run_congos_scenario(steady_scenario(8, 120, 0, deadline=16))
        hardened = run_congos_scenario(
            steady_scenario(
                8, 120, 0, deadline=16, params=CongosParams().hardened()
            )
        )
        assert hardened.qod.satisfied
        assert hardened.confidentiality.is_clean()
        # Redundancy costs messages; it must never cost correctness.
        assert hardened.stats.total >= default.stats.total

    def test_hardened_chaos_run_stays_clean(self):
        result = run_congos_scenario(
            chaos_scenario(8, 60, seed=1, deadline=16, drop=0.3, hardened=True)
        )
        assert result.confidentiality.is_clean()
        assert result.fault_plane.counts["drop"] > 0
